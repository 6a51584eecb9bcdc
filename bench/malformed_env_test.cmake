# Runs bench_solver_scaling once per malformed ADARNET_BENCH_SCALING_ITERS
# value and fails unless every run exits with status 2 and names the
# variable -- never 0: a count read as 0 runs zero iterations and still
# writes every accept bit as 1.
#
#   cmake -DBENCH=<path to bench_solver_scaling> -P malformed_env_test.cmake
set(failed "")
foreach(value "eight" "8x" "-1" "2.5" "99999999999")
  set(ENV{ADARNET_BENCH_SCALING_ITERS} "${value}")
  execute_process(COMMAND "${BENCH}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "ADARNET_BENCH_SCALING_ITERS")
    list(APPEND failed "'${value}' -> ${rc}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR
          "bench_solver_scaling accepted a malformed count: ${failed}")
endif()
