# Usage-error probe: runs BIN with the space-separated ARGS (under the
# environment assignments in ENV, if any) and requires exit code 2 with
# FLAG named on stderr. Invoked by CTest as:
#   cmake -DBIN=<binary> -DARGS="<args>" -DFLAG=<name> [-DENV="K=V ..."]
#         -P usage_error.cmake
if(NOT BIN OR NOT FLAG)
  message(FATAL_ERROR "usage_error.cmake needs -DBIN=... and -DFLAG=...")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(env UNIX_COMMAND "${ENV}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env ${env} "${BIN}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got rc=${rc}\n${out}\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}:\n${err}")
endif()
message(STATUS "usage error ok: rc=2, ${err}")
