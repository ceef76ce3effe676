# Regeneration probe for one committed figure or ablation CSV: runs the
# driver at its default horizon in the current (scratch) directory, where it
# writes NAME.csv, and requires that file to be byte-identical to the
# committed one. On a difference it names the first differing row. A PR
# that moves a trajectory on purpose re-blesses the committed CSV in the
# same commit. Invoked by CTest as:
#   cmake -DBIN=<driver> -DNAME=<csv stem> -DGOLDEN=<committed csv>
#         -P regenerate_csv.cmake
if(NOT BIN OR NOT NAME OR NOT GOLDEN)
  message(FATAL_ERROR
          "regenerate_csv.cmake needs -DBIN=..., -DNAME=... and -DGOLDEN=...")
endif()

set(fresh "${NAME}.csv")
file(REMOVE "${fresh}")
# The committed CSVs are the default horizons: no REPRO_* override applies.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env --unset=REPRO_FULL --unset=REPRO_SLOTS
          --unset=REPRO_SEEDS --unset=REPRO_INSTANCES "${BIN}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN}: exit ${rc}\n${err}")
endif()
if(NOT EXISTS "${fresh}")
  message(FATAL_ERROR "${BIN} wrote no ${fresh}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${fresh}"
                        "${GOLDEN}"
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(STATUS "${NAME}.csv regenerates byte-identical")
  return()
endif()

# Name the first differing row (line 1 is the header). Rows are list
# elements, so empty ones must count.
cmake_policy(SET CMP0007 NEW)
file(READ "${fresh}" got)
file(READ "${GOLDEN}" want)
string(REPLACE "\n" ";" got "${got}")
string(REPLACE "\n" ";" want "${want}")
list(LENGTH got n_got)
list(LENGTH want n_want)
set(n ${n_got})
if(n_want GREATER n)
  set(n ${n_want})
endif()
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
  set(g "<missing>")
  set(w "<missing>")
  if(i LESS n_got)
    list(GET got ${i} g)
  endif()
  if(i LESS n_want)
    list(GET want ${i} w)
  endif()
  if(NOT g STREQUAL w)
    math(EXPR line "${i} + 1")
    message(FATAL_ERROR "${NAME}.csv differs from ${GOLDEN} first at line "
                        "${line}:\n  committed:   ${w}\n  regenerated: ${g}")
  endif()
endforeach()
message(FATAL_ERROR "${NAME}.csv differs from ${GOLDEN} (line endings)")
