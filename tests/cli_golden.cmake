# Runs PROGRAM with ARGS (one space-separated string) and compares its
# stdout byte for byte with the file EXPECTED; a mismatch or an exit status
# other than EXIT_CODE (default 0) fails the test. With LW_UPDATE_GOLDEN set
# in the environment it rewrites EXPECTED instead.
#   cmake -DPROGRAM=... "-DARGS=..." -DEXPECTED=... [-DEXIT_CODE=N]
#         -P cli_golden.cmake
if(NOT DEFINED EXIT_CODE)
  set(EXIT_CODE 0)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL EXIT_CODE)
  message(FATAL_ERROR
    "${PROGRAM} ${ARGS} exited with ${status}, expected ${EXIT_CODE}")
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
