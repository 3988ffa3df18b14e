# Runs the determinism probe under PP_THREADS=1, 3 and 8 and fails unless
# the outputs are byte-identical (thread-count-invariant sampling). The odd
# middle width catches pool-partitioning bugs a power-of-two pair can hide.
# Invoked by ctest: cmake -DPROBE=<binary> [-DFORCE_ISA=<isa>
#                         -DGOLDEN=<file> -DCOMPILER=<id version>
#                         -DBUILD_TYPE=<type>] -P compare_thread_runs.cmake
# FORCE_ISA additionally pins PP_FORCE_ISA so the probe can be run once per
# kernel ISA (determinism must hold on the vector path too); the leg
# auto-skips on hosts whose CPU cannot execute that ISA. GOLDEN names the
# committed digest of that ISA's PP_THREADS=1 output (tests/golden), so a
# bit that moves for every thread count fails too.
if(NOT DEFINED PROBE)
  message(FATAL_ERROR "pass -DPROBE=<path to determinism_probe>")
endif()

if(DEFINED FORCE_ISA)
  execute_process(COMMAND ${PROBE} --isa-usable ${FORCE_ISA}
                  RESULT_VARIABLE usable_rc)
  if(usable_rc EQUAL 3)
    message(STATUS "host cannot execute ${FORCE_ISA}; skipping this leg")
    return()
  elseif(NOT usable_rc EQUAL 0)
    message(FATAL_ERROR "--isa-usable ${FORCE_ISA} probe failed (rc ${usable_rc})")
  endif()
endif()

foreach(threads 1 3 8)
  set(envs PP_THREADS=${threads})
  if(DEFINED FORCE_ISA)
    list(APPEND envs PP_FORCE_ISA=${FORCE_ISA})
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${envs} ${PROBE}
    OUTPUT_VARIABLE out_${threads}
    RESULT_VARIABLE rc_${threads})
  if(NOT rc_${threads} EQUAL 0)
    message(FATAL_ERROR "probe failed under PP_THREADS=${threads} (rc ${rc_${threads}})")
  endif()
endforeach()

foreach(threads 3 8)
  if(NOT out_1 STREQUAL out_${threads})
    message(FATAL_ERROR "library differs between PP_THREADS=1 and PP_THREADS=${threads}:\n"
                        "--- PP_THREADS=1 ---\n${out_1}\n"
                        "--- PP_THREADS=${threads} ---\n${out_${threads}}")
  endif()
endforeach()
message(STATUS "PP_THREADS=1, 3 and 8 produced identical libraries")

if(DEFINED FORCE_ISA AND DEFINED GOLDEN)
  file(STRINGS "${GOLDEN}" golden_lines REGEX "^[a-z0-9]+=")
  foreach(line IN LISTS golden_lines)
    string(REGEX MATCH "^[a-z0-9]+" key "${line}")
    string(REGEX REPLACE "^[a-z0-9]+=" "" value "${line}")
    set(golden_${key} "${value}")
  endforeach()
  string(SHA256 digest "${out_1}")
  if(NOT COMPILER STREQUAL golden_compiler OR
     NOT BUILD_TYPE STREQUAL golden_build)
    message(STATUS "${GOLDEN} holds for ${golden_compiler} ${golden_build};"
                   " this build is ${COMPILER} ${BUILD_TYPE}, so the golden"
                   " check is skipped (digest here: ${digest})")
  elseif(NOT digest STREQUAL golden_sha256)
    message(FATAL_ERROR "PP_THREADS=1 output under PP_FORCE_ISA=${FORCE_ISA}"
                        " hashes to ${digest}, but ${GOLDEN} records"
                        " ${golden_sha256}: an output bit moved.\n"
                        "--- PP_THREADS=1 ---\n${out_1}")
  else()
    message(STATUS "PP_THREADS=1 output matches ${GOLDEN}")
  endif()
endif()
