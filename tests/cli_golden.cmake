# Runs PROGRAM with ARGS (one space-separated string) and checks what it
# printed: stdout byte for byte against the file EXPECTED, and/or stdout
# and stderr for the substrings STDOUT and STDERR. A mismatch or an exit
# status other than EXIT_CODE (default 0) fails the test. With
# LW_UPDATE_GOLDEN set in the environment it rewrites EXPECTED instead of
# comparing it.
#   cmake -DPROGRAM=... "-DARGS=..." [-DEXPECTED=...] [-DEXIT_CODE=N]
#         ["-DSTDOUT=..."] ["-DSTDERR=..."] -P cli_golden.cmake
if(NOT DEFINED EXIT_CODE)
  set(EXIT_CODE 0)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE errors
  RESULT_VARIABLE status)
if(NOT status EQUAL EXIT_CODE)
  message(FATAL_ERROR
    "${PROGRAM} ${ARGS} exited with ${status}, expected ${EXIT_CODE}")
endif()
set(printed_STDOUT "${actual}")
set(printed_STDERR "${errors}")
foreach(stream STDOUT STDERR)
  if(NOT "${${stream}}" STREQUAL "")
    string(FIND "${printed_${stream}}" "${${stream}}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${stream} of ${PROGRAM} ${ARGS} lacks"
        " \"${${stream}}\":\n${printed_${stream}}")
    endif()
  endif()
endforeach()
if("${EXPECTED}" STREQUAL "")
  return()
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
