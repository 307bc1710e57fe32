# Provenance check for one bench binary: run it with a filter that
# matches no benchmark and the observability knobs set, and require both
# knobs in the BENCH_<tag>.json it writes — every bench records the same
# provenance through the shared COOP_BENCH_MAIN entry point.
#
# Usage: cmake -DBIN=<bench binary> -DDIR=<scratch dir> -P provenance_check.cmake
set(ENV{COOP_TRACE_SAMPLE} 1)
set(ENV{COOP_TS_WINDOW_US} 100000)
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
execute_process(COMMAND ${BIN} --benchmark_filter=^no-such-benchmark$
                WORKING_DIRECTORY ${DIR} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

file(GLOB artifacts ${DIR}/BENCH_*.json)
list(FILTER artifacts EXCLUDE REGEX "\\.trace\\.json$")
list(LENGTH artifacts count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "expected one BENCH_<tag>.json in ${DIR}, found ${count}")
endif()
file(READ ${artifacts} json)
foreach(knob "\"COOP_TRACE_SAMPLE\":\"1\"" "\"COOP_TS_WINDOW_US\":\"100000\"")
  string(FIND "${json}" "${knob}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${artifacts} does not record ${knob}")
  endif()
endforeach()
