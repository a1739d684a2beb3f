# CTest smoke for one perf-tracking pipeline: run a bench on a tiny grid,
# feed its CSV through bench_to_json, and require the JSON report to
# appear with the host keys in its config. Mirrors what the CI bench matrix
# does at full size. The checksum gate inside bench_to_json makes every
# smoke a bit-identity check across the bench's passes; the --min_speedup
# gates are 0.0 at smoke size (tiny inputs say nothing about throughput —
# the CI matrix gates the full grids).
# Expects -DNAME=<smoke name> -DBENCH=<bench binary> -DEMIT=<bench_to_json>
# -DOUT_DIR=<dir> -DARGS="<space-separated bench flags>"
# -DGATE=<--min_speedup value>.

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
set(csv ${OUT_DIR}/bench_${NAME}_smoke.csv)
set(json ${OUT_DIR}/BENCH_${NAME}_smoke.json)

execute_process(
  COMMAND ${BENCH} ${bench_args}
  OUTPUT_FILE ${csv}
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (rc=${bench_rc})")
endif()

execute_process(
  COMMAND ${EMIT} --in=${csv} --out=${json} --min_speedup=${GATE}
  RESULT_VARIABLE emit_rc)
if(NOT emit_rc EQUAL 0)
  message(FATAL_ERROR "bench_to_json failed (rc=${emit_rc}); a non-zero "
          "exit here means the bench's passes diverged (checksum gate), a "
          "speedup gate tripped, or the report could not be written")
endif()

if(NOT EXISTS ${json})
  message(FATAL_ERROR "bench_to_json exited 0 but wrote no JSON report")
endif()

# Every report records the host it ran on (bench::PrintReportHead).
file(READ ${json} report)
foreach(key hardware_threads simd_detected simd_active compiler build_type)
  string(FIND "${report}" "\"${key}\": " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${json} config lacks the host key '${key}'")
  endif()
endforeach()
