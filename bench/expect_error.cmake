# CTest check that a bench or tool refuses its command line: run BENCH
# with ARGS and require exit code 1 with EXPECT in its stderr.
# Expects -DBENCH=<binary> -DARGS="<space-separated flags>"
# -DEXPECT=<stderr substring>.

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BENCH} ${bench_args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${BENCH} exited ${rc}, want 1; stderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}': ${err}")
endif()
