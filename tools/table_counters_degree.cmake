# Runs BENCH's table phase only (a --benchmark_filter that matches no
# benchmark), traced, at CCMX_THREADS=1 and at 2 into two fresh report
# directories under OUT, and fails unless `ccmx_insight diff` of the two
# exits 0: the table counters it gates must not move with the degree.
#   cmake -DBENCH=<exe> -DINSIGHT=<exe> -DOUT=<dir> \
#         -P table_counters_degree.cmake
file(REMOVE_RECURSE "${OUT}")
foreach(threads 1 2)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CCMX_TRACE=1 CCMX_THREADS=${threads}
            CCMX_BENCH_OUT=${OUT}/threads${threads}
            "${BENCH}" --benchmark_filter=^$
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} at CCMX_THREADS=${threads}: exit ${status}")
  endif()
endforeach()
execute_process(
  COMMAND "${INSIGHT}" diff --baseline ${OUT}/threads1
          --candidate ${OUT}/threads2
  RESULT_VARIABLE status OUTPUT_VARIABLE summary ERROR_VARIABLE summary)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "diff of CCMX_THREADS=1 vs 2 exited ${status}:\n"
                      "${summary}")
endif()
