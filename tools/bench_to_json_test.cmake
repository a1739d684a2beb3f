# CTest check of bench_to_json's exit codes over small inline CSV reports:
# 0 on a passing report, 2 on a checksum divergence, 1 on an unmet
# --min_speedup, a gate naming a missing op or column value, a report
# without its `# bench=` line, a missing --out or an unknown flag.
# Expects -DEMIT=<bench_to_json> -DOUT_DIR=<scratch dir>.

set(dir ${OUT_DIR}/bench_to_json_test)
file(MAKE_DIRECTORY ${dir})
set(head "# bench=toy n=10\nop,threads,ms,checksum\n")
file(WRITE ${dir}/pass.csv "${head}sweep,1,10.0,a|b\nsweep,2,4.0,a|b\n")
file(WRITE ${dir}/diverged.csv "${head}sweep,1,10.0,a|b\nsweep,2,4.0,a|c\n")
file(WRITE ${dir}/unnamed.csv
     "op,threads,ms,checksum\nsweep,1,10.0,a|b\nsweep,2,4.0,a|b\n")

# expect(<exit code> <csv> <bench_to_json flags>...)
function(expect want csv)
  file(REMOVE ${dir}/out.json)
  execute_process(COMMAND ${EMIT} --in=${dir}/${csv} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR
            "bench_to_json on ${csv} with '${ARGN}' exited ${rc}, want "
            "${want}; stderr: ${err}")
  endif()
endfunction()

set(out --out=${dir}/out.json)
expect(0 pass.csv ${out} --min_speedup=sweep:2:2.0)
if(NOT EXISTS ${dir}/out.json)
  message(FATAL_ERROR "a passing report wrote no JSON")
endif()
file(READ ${dir}/out.json report)
string(FIND "${report}" "\"bench\": \"toy\"" at)
if(at EQUAL -1)
  message(FATAL_ERROR "the JSON report does not name its bench: ${report}")
endif()

expect(2 diverged.csv ${out} --min_speedup=sweep:2:0.0)
expect(1 pass.csv ${out} --min_speedup=sweep:2:3.0)
expect(1 pass.csv ${out} --min_speedup=mhr:2:1.0)
expect(1 pass.csv ${out} --min_speedup=sweep:4:1.0)
expect(1 unnamed.csv ${out})
expect(1 pass.csv)
expect(1 pass.csv ${out} --min_speedups=sweep:2:9.0)
