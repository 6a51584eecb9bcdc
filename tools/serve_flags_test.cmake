# Runs adarnet_serve once per malformed or out-of-range numeric flag and
# fails unless every run exits with status 2 — never 0 (serving with the
# value read as 0) or 1 (a bind failure). `--port 0` comes first, so a
# parser that lets a case through binds an ephemeral port and the timeout
# ends it.
#
#   cmake -DSERVE=<path to adarnet_serve> -P serve_flags_test.cmake
set(cases
  "--tol abc" "--tol 0" "--tol 1.5" "--tol nan" "--tol inf"
  "--max-outer xyz" "--max-outer 0" "--max-outer 2e6" "--max-outer 12x"
  "--deadline-ms nope" "--deadline-ms -1"
  "--workers many" "--workers 0" "--workers 2.5"
  "--queue 0" "--queue 4q"
  "--port -1" "--port 65536" "--port 80.5"
  "--telemetry-port 70000" "--telemetry-port x"
  "--recorder-depth -3" "--recorder-depth 1e400"
  "--shrink 0" "--shrink two"
  "--slo-latency-ms 0" "--slo-latency-ms fast"
  "--slo-availability 1" "--slo-availability 0")
set(failed "")
foreach(c IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${c}")
  execute_process(COMMAND "${SERVE}" --port 0 ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 20)
  if(NOT rc STREQUAL "2")
    list(APPEND failed "'${c}' -> ${rc}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "adarnet_serve accepted a malformed flag: ${failed}")
endif()
