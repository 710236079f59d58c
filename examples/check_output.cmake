# Runs one example and compares its stdout with a recorded golden file.
#
#   cmake -DEXE=<binary> -DGOLDEN=<file> -P check_output.cmake
#
# Every example prints only simulated quantities, so its stdout is the same
# on every run and at every IMC_THREADS; any difference is a changed result.
execute_process(COMMAND ${EXE} OUTPUT_VARIABLE got RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "stdout of ${EXE} differs from ${GOLDEN}\n"
                      "--- got:\n${got}--- want:\n${want}")
endif()
