# Experiment-cache scale check: seed a smoke-scale cache with BENCH, write
# a gansec.model.v1 checkpoint of another topology over its model with the
# gansec CLI, then require BENCH to notice, rebuild the cache and exit 0.
#
#   cmake -DBENCH=... -DCLI=... -DDIR=... -P cache_rebuild_test.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(ENV{GANSEC_BENCH_SMOKE} 1)
set(ENV{GANSEC_BENCH_CACHE_DIR} "${DIR}/cache")
set(ENV{GANSEC_BENCH_OUT} "${DIR}/out")

execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE seed_result OUTPUT_QUIET ERROR_QUIET)
if(NOT seed_result EQUAL 0)
  message(FATAL_ERROR "seeding run exited ${seed_result}")
endif()
if(NOT EXISTS "${DIR}/cache/cgan.gsm")
  message(FATAL_ERROR "seeding run wrote no cgan.gsm")
endif()

execute_process(
  COMMAND "${CLI}" train --samples 6 --bins 4 --window 0.05 --iterations 2
          --model "${DIR}/cache/cgan.gsm"
  WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE train_result OUTPUT_QUIET ERROR_QUIET)
if(NOT train_result EQUAL 0)
  message(FATAL_ERROR "gansec train exited ${train_result}")
endif()

execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE bench_result OUTPUT_QUIET
                ERROR_VARIABLE bench_log)
if(NOT bench_result EQUAL 0)
  message(FATAL_ERROR "run over the mismatched cache exited ${bench_result}:\n"
                      "${bench_log}")
endif()
if(NOT bench_log MATCHES "rebuilding")
  message(FATAL_ERROR "the mismatched cache was not rebuilt:\n${bench_log}")
endif()
