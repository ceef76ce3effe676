# Output probe: runs BIN with the space-separated ARGS, requires exit code
# 0 and every "|"-separated string of EXPECT (none holding a ";")
# somewhere on stdout. Invoked by CTest as:
#   cmake -DBIN=<binary> -DARGS="<args>" -DEXPECT="<a>|<b>" -P expect_output.cmake
if(NOT BIN OR NOT EXPECT)
  message(FATAL_ERROR "expect_output.cmake needs -DBIN=... and -DEXPECT=...")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "expected exit 0, got rc=${rc}\n${out}\n${err}")
endif()
string(REPLACE "|" ";" wanted "${EXPECT}")
foreach(want IN LISTS wanted)
  string(FIND "${out}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stdout does not hold \"${want}\":\n${out}")
  endif()
endforeach()
message(STATUS "output ok:\n${out}")
