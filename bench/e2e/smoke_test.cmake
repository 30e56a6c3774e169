# One smoke test: run gansec_bench --smoke on WORKLOAD, then require exit 0,
# an artifact under the smoke name that gansec_benchdiff --check accepts,
# and the artifact's "smoke": true flag (so it can never pass for a
# full-size baseline).
#
#   cmake -DBENCH=... -DBENCHDIFF=... -DWORKLOAD=... -DOUT=... \
#         -P smoke_test.cmake
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(
  COMMAND "${BENCH}" --workload "${WORKLOAD}" --seed 7 --seconds 1 --smoke
          --out "${OUT}" --trace "${OUT}/trace.json"
  RESULT_VARIABLE bench_result)
if(NOT bench_result EQUAL 0)
  message(FATAL_ERROR "gansec_bench --smoke ${WORKLOAD} exited ${bench_result}")
endif()
set(artifact "${OUT}/BENCH_e2e_${WORKLOAD}_smoke.json")
execute_process(COMMAND "${BENCHDIFF}" --check "${artifact}"
                RESULT_VARIABLE check_result)
if(NOT check_result EQUAL 0)
  message(FATAL_ERROR "gansec_benchdiff --check ${artifact} failed")
endif()
if(EXISTS "${OUT}/BENCH_e2e_${WORKLOAD}.json")
  message(FATAL_ERROR "a smoke run wrote an artifact under the full-size name")
endif()
file(READ "${artifact}" body)
if(NOT body MATCHES "\"smoke\":true")
  message(FATAL_ERROR "${artifact} is not marked as a smoke artifact")
endif()
if(NOT EXISTS "${OUT}/trace.json")
  message(FATAL_ERROR "no chrome trace written")
endif()
