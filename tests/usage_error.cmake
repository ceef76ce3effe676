# Usage-error probe: runs BIN with the space-separated ARGS (under the
# environment assignments in ENV, if any) and requires exit code RC
# (default 2) with FLAG named on stderr and no raw GC_CHECK report (which
# would leak a source path). Invoked by CTest as:
#   cmake -DBIN=<binary> -DARGS="<args>" -DFLAG=<name> [-DENV="K=V ..."]
#         [-DRC=<code>] -P usage_error.cmake
if(NOT BIN OR NOT FLAG)
  message(FATAL_ERROR "usage_error.cmake needs -DBIN=... and -DFLAG=...")
endif()
if(NOT DEFINED RC)
  set(RC 2)
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(env UNIX_COMMAND "${ENV}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env ${env} "${BIN}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL RC)
  message(FATAL_ERROR "expected exit ${RC}, got rc=${rc}\n${out}\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}:\n${err}")
endif()
string(FIND "${err}" "GC_CHECK" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "stderr carries a raw GC_CHECK report:\n${err}")
endif()
message(STATUS "usage error ok: rc=${rc}, ${err}")
