# Run EXE with the space-separated ARGS and fail unless it exits with status
# EXPECT and its stderr matches the regex STDERR.  A crash (signal) fails:
# RESULT_VARIABLE is then a message, not a number.
#
#   cmake -DEXE=./driver "-DARGS=--grid=16x16x4" -DEXPECT=1 "-DSTDERR=too thin"
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}, expected ${EXPECT}\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr does not match '${STDERR}':\n${err}")
endif()
