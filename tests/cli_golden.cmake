# Runs PROGRAM with ARGS (one space-separated string) and compares its
# stdout byte for byte with the file EXPECTED; a mismatch or a non-zero exit
# fails the test. With LW_UPDATE_GOLDEN set in the environment it rewrites
# EXPECTED instead.
#   cmake -DPROGRAM=... "-DARGS=..." -DEXPECTED=... -P cli_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
if(DEFINED ENV{LW_UPDATE_GOLDEN})
  file(WRITE "${EXPECTED}" "${actual}")
  message(STATUS "fixture regenerated at ${EXPECTED}")
  return()
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "output of ${PROGRAM} ${ARGS} differs from ${EXPECTED};"
    " if intentional, rerun with LW_UPDATE_GOLDEN=1")
endif()
