# Output identity probe for greencell_sim: no output file carries
# wall-clock time, so two runs with identical flags write byte-identical
# --trace, --csv and --checkpoint files, and a run resumed from a
# checkpoint ends with the CSV and checkpoint of an uninterrupted run.
# Invoked by CTest as:
#   cmake -DBIN=<greencell_sim> -DSPEC=<scenario.json> -DDIR=<scratch dir>
#         -P output_identity.cmake
if(NOT BIN OR NOT SPEC OR NOT DIR)
  message(FATAL_ERROR
          "output_identity.cmake needs -DBIN=..., -DSPEC=... and -DDIR=...")
endif()

set(work "${DIR}/output_identity")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")

function(run_sim)
  execute_process(COMMAND "${BIN}" --scenario "${SPEC}" --quiet ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN}: exit ${rc}\n${out}\n${err}")
  endif()
endfunction()

# newest_generation(VAR BASE): the BASE.gen<K> file with the largest K.
function(newest_generation var base)
  file(GLOB gens "${base}.gen*")
  set(best -1)
  foreach(g ${gens})
    if(g MATCHES "\\.gen([0-9]+)$" AND CMAKE_MATCH_1 GREATER best)
      set(best ${CMAKE_MATCH_1})
    endif()
  endforeach()
  if(best EQUAL -1)
    message(FATAL_ERROR "no checkpoint generation at ${base}")
  endif()
  set(${var} "${base}.gen${best}" PARENT_SCOPE)
endfunction()

function(expect_same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    file(SIZE "${a}" size_a)
    file(SIZE "${b}" size_b)
    message(FATAL_ERROR "${a} (${size_a} bytes) and ${b} (${size_b} bytes) "
                        "differ")
  endif()
endfunction()

# Two runs with identical flags.
foreach(run a b)
  run_sim(--slots 40 --checkpoint-every 10 --checkpoint "${work}/${run}.ckpt"
          --trace "${work}/${run}.jsonl" --csv "${work}/${run}.csv")
endforeach()
expect_same("${work}/a.jsonl" "${work}/b.jsonl")
expect_same("${work}/a.csv" "${work}/b.csv")
newest_generation(ckpt_a "${work}/a.ckpt")
newest_generation(ckpt_b "${work}/b.ckpt")
expect_same("${ckpt_a}" "${ckpt_b}")

# 20 slots, then resumed to 40, against the uninterrupted run above.
run_sim(--slots 20 --checkpoint-every 10 --checkpoint "${work}/r.ckpt")
run_sim(--slots 40 --checkpoint-every 10 --checkpoint "${work}/r.ckpt"
        --resume "${work}/r.ckpt" --csv "${work}/r.csv")
expect_same("${work}/a.csv" "${work}/r.csv")
newest_generation(ckpt_r "${work}/r.ckpt")
expect_same("${ckpt_a}" "${ckpt_r}")

file(REMOVE_RECURSE "${work}")
message(STATUS "output identity ok")
