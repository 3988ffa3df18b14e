# Flag-parsing contract of ppaint_serve and ppaint_cli: every numeric
# option or argument must reject a malformed value with a usage error that
# names it and exit code 2 — never an uncaught std::invalid_argument abort
# or a silently truncated number (std::stoi("1e3") is 1).
# Invoked by ctest:
#   cmake -DSERVE=<ppaint_serve> -DCLI=<ppaint_cli> -DWORK_DIR=<dir>
#         -P serve_cli.cmake
if(NOT DEFINED SERVE OR NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "pass -DSERVE=<ppaint_serve> -DCLI=<ppaint_cli> -DWORK_DIR=<dir>")
endif()

# (flag value) pairs covering every numeric option, plus out-of-range and
# trailing-garbage shapes that strtol alone would let through.
set(bad_cases
  "--max-queue|banana"
  "--max-queue|0"
  "--max-batch|12abc"
  "--shards|"
  "--cache|-3"
  "--backlog|99999999"
  "--max-conns|1e3")

foreach(case ${bad_cases})
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 flag)
  list(LENGTH parts nparts)
  if(nparts GREATER 1)
    list(GET parts 1 value)
  else()
    set(value "")
  endif()
  execute_process(
    COMMAND ${SERVE} pipe ${flag} "${value}"
    INPUT_FILE /dev/null
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 30)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "'${flag} ${value}' should exit 2 with a usage error, got rc='${rc}':"
      "\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${flag}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "'${flag} ${value}' error does not name the flag:\n${err}")
  endif()
endforeach()

# Bad tcp endpoint shapes.
foreach(endpoint "127.0.0.1" "127.0.0.1:notaport" "127.0.0.1:70000")
  execute_process(
    COMMAND ${SERVE} tcp ${endpoint}
    INPUT_FILE /dev/null
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 30)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "'tcp ${endpoint}' should exit 2, got rc='${rc}':\n${out}\n${err}")
  endif()
endforeach()

# Good values still parse: a pipe session with every numeric flag set.
execute_process(
  COMMAND ${SERVE} pipe --max-queue 8 --max-batch 4 --shards 2 --cache 16
          --backlog 64 --max-conns 128
  INPUT_FILE /dev/null
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
  TIMEOUT 30)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "valid flags rejected (rc ${rc}):\n${out}\n${err}")
endif()

# ppaint_cli: (argument name | command line) cases. Numbers are parsed
# before any output file or server is opened, so the unreachable targets
# and the gen output below are never touched.
set(gen_out "${WORK_DIR}/serve_cli_gen.txt")
file(REMOVE ${gen_out})
set(cli_cases
  "<n>|gen|1e3|${gen_out}"
  "clip_size|gen|2|${gen_out}|default|32x"
  "seed|gen|2|${gen_out}|default|32|-1"
  "count|client|spawn:/nonexistent|2x"
  "<W>|expand|spawn:/nonexistent|64abc|64|p"
  "interval_ms|top|spawn:/nonexistent|1|ten")
foreach(case ${cli_cases})
  string(REPLACE "|" ";" parts "${case}")
  list(POP_FRONT parts name)
  execute_process(
    COMMAND ${CLI} ${parts}
    INPUT_FILE /dev/null
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 30)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "ppaint_cli '${case}' should exit 2 with a usage error, got "
      "rc='${rc}':\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${name}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "ppaint_cli '${case}' error does not name ${name}:\n${err}")
  endif()
endforeach()
if(EXISTS ${gen_out})
  message(FATAL_ERROR "a rejected gen still wrote ${gen_out}")
endif()
message(STATUS "ppaint_serve and ppaint_cli argument parsing OK")
