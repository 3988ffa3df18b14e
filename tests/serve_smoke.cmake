# End-to-end smoke of the ppaint_serve pipe transport: feed a canned NDJSON
# session (ping -> load tiny model -> sample -> bad request -> shutdown)
# into the real binary over stdin and check the responses on stdout, the
# --stats dump and the --publish metrics snapshot.
# Invoked by ctest: cmake -DSERVE=<binary> -DWORK_DIR=<dir> -P serve_smoke.cmake
if(NOT DEFINED SERVE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DSERVE=<path to ppaint_serve> -DWORK_DIR=<dir>")
endif()

set(input "${WORK_DIR}/serve_smoke_input.ndjson")
set(stats "${WORK_DIR}/serve_smoke_stats.json")
set(metrics "${WORK_DIR}/serve_smoke_metrics.json")
file(REMOVE ${metrics})
file(WRITE ${input}
  "{\"id\":1,\"op\":\"ping\"}\n"
  "{\"id\":2,\"op\":\"load\",\"model\":\"smoke\",\"preset\":\"sd1\",\"clip\":16,\"timesteps\":40,\"sample_steps\":4,\"base_channels\":6,\"time_dim\":16}\n"
  "{\"id\":3,\"op\":\"sample\",\"model\":\"smoke\",\"seed\":5,\"count\":2}\n"
  "{\"id\":4,\"op\":\"sample\",\"model\":\"missing\",\"seed\":1}\n"
  "{\"id\":5,\"op\":\"stats\"}\n"
  "{\"id\":6,\"op\":\"shutdown\"}\n")

execute_process(
  COMMAND ${SERVE} pipe --stats ${stats} --publish ${metrics}
  INPUT_FILE ${input}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
  TIMEOUT 120)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ppaint_serve pipe failed (rc ${rc}):\n${out}\n${err}")
endif()

# One response line per request, every expected marker present.
foreach(marker
    "\"pong\":true"              # ping answered
    "\"model\":\"smoke\""        # load acknowledged
    "\"patterns\":"              # generation round-tripped
    "\"code\":\"unknown_model\"" # structured request error
    "\"stats\":"                 # stats op
    "\"draining\":true")         # shutdown ack, written after the drain
  string(FIND "${out}" "${marker}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "response missing '${marker}':\n${out}\n${err}")
  endif()
endforeach()

if(NOT EXISTS ${stats})
  message(FATAL_ERROR "stats dump ${stats} was not written")
endif()
file(READ ${stats} stats_text)
string(FIND "${stats_text}" "\"completed\": 1" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "stats dump looks wrong:\n${stats_text}")
endif()

# The publisher writes its last snapshot after the drain, so the completed
# count is exact: the one sample request.
if(NOT EXISTS ${metrics})
  message(FATAL_ERROR "metrics snapshot ${metrics} was not published")
endif()
file(READ ${metrics} metrics_text)
string(FIND "${metrics_text}" "\"snapshot\": \"pp.metrics.v1\"" pos)
string(REGEX MATCH "\"serve\\.completed\": 1[^0-9]" completed
       "${metrics_text}")
if(pos EQUAL -1 OR NOT completed)
  message(FATAL_ERROR "metrics snapshot looks wrong:\n${metrics_text}")
endif()
message(STATUS "ppaint_serve pipe smoke OK")
