# Runs the program BENCH (a paper bench or a deterministic example), fails
# on a non-zero exit and compares its stdout byte for byte with the
# committed GOLDEN file. The output is written to ACTUAL, so a failing case
# leaves it for inspection; the diff is printed when `diff` is available.
#
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P check.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed: ${status}")
endif()
file(WRITE "${ACTUAL}" "${actual}")
file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN} "
                      "(the new output is in ${ACTUAL})")
endif()
