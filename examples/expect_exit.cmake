# Runs PROG with ARGS (one space-separated string) and fails unless it
# exits with status EXPECT.  A crash reports a signal name, never a match.
#   cmake -DPROG=<exe> "-DARGS=<args>" -DEXPECT=<status> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
if(NOT status STREQUAL EXPECT)
  message(FATAL_ERROR "${PROG} ${ARGS}: exit status ${status}, "
                      "expected ${EXPECT}")
endif()
