# Runs PROG with ARGS (one space-separated string) and fails unless it exits
# with status 0 and its standard output equals the file EXPECTED, byte for
# byte.
#   cmake -DPROG=<exe> "-DARGS=<args>" -DEXPECTED=<file> -P expect_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${PROG} ${ARGS}: exit status ${status}, expected 0")
endif()
file(READ "${EXPECTED}" expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "${PROG} ${ARGS}: standard output differs from "
                      "${EXPECTED}:\n${out}")
endif()
