# Runs BENCH and compares its stdout with the file GOLDEN byte for byte.
# On a mismatch the actual stdout is kept in ACTUAL and a unified diff is
# printed. Usage:
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P compare.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with '${rc}'")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN} (actual kept in ${ACTUAL})")
endif()
