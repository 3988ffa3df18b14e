# End-to-end smoke of the epoll network tier: ppaint_cli spawns the real
# ppaint_serve in tcp mode on a kernel-assigned port (published via
# --port-file), connects over loopback TCP, and round-trips
# ping -> load -> sample -> shutdown through the full stack; then renders
# one `ppaint_cli top` frame from a fresh tcp-mode server.
# Invoked by ctest: cmake -DCLI=<ppaint_cli> -DSERVE=<ppaint_serve>
#                        -P serve_tcp_smoke.cmake
if(NOT DEFINED CLI OR NOT DEFINED SERVE)
  message(FATAL_ERROR "pass -DCLI=<ppaint_cli> -DSERVE=<ppaint_serve>")
endif()

execute_process(
  COMMAND ${CLI} client "spawntcp:${SERVE}" 2 11
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
  TIMEOUT 120)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tcp client round-trip failed (rc ${rc}):\n${out}\n${err}")
endif()
string(FIND "${out}" "round-trip ok: 2 patterns" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "tcp round-trip output looks wrong:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${CLI} top "spawntcp:${SERVE}" 1 0
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
  TIMEOUT 120)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "top over tcp failed (rc ${rc}):\n${out}\n${err}")
endif()
foreach(marker "frame 1" "health: ok" "e2e p50/p95/p99")
  string(FIND "${out}" "${marker}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "top frame missing '${marker}':\n${out}\n${err}")
  endif()
endforeach()
message(STATUS "ppaint_serve tcp smoke OK")
