# Runs one nimage_cli command and checks its exit code and, optionally,
# that stderr names a given string.
#
#   cmake -DCLI=<nimage_cli> "-DARGS=build Richards ..." -DEXPECT_RC=<n>
#         [-DEXPECT_STDERR=<text>] -P CliCheck.cmake
separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${ArgList}
  RESULT_VARIABLE Rc
  OUTPUT_QUIET
  ERROR_VARIABLE Err)
if(NOT Rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
    "nimage_cli ${ARGS}: exit ${Rc}, expected ${EXPECT_RC}\n${Err}")
endif()
if(NOT EXPECT_STDERR STREQUAL "")
  string(FIND "${Err}" "${EXPECT_STDERR}" At)
  if(At EQUAL -1)
    message(FATAL_ERROR
      "nimage_cli ${ARGS}: stderr does not name '${EXPECT_STDERR}':\n${Err}")
  endif()
endif()
