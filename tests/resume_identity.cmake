# Resume identity probe for greencell_sim. The sleep-policy flags are part
# of a run's identity: a checkpoint written under --policy threshold resumes
# only under the same flags, and a supervised --reload-scenario swap keeps
# them. Every refusal exits 1 with a plain message and no raw GC_CHECK
# report (which would leak a source path). Invoked by CTest as:
#   cmake -DBIN=<greencell_sim> -DDIR=<scratch dir> -P resume_identity.cmake
if(NOT BIN OR NOT DIR)
  message(FATAL_ERROR "resume_identity.cmake needs -DBIN=... and -DDIR=...")
endif()

set(ckpt "${DIR}/resume_identity.ckpt")
set(sup "${DIR}/resume_identity_sup.ckpt")
file(GLOB stale "${ckpt}*" "${sup}*")
if(stale)
  file(REMOVE ${stale})
endif()

# run_sim(RC EXPECT [args...]): requires exit code RC, EXPECT (when not
# empty) on stdout or stderr, and no GC_CHECK on stderr.
function(run_sim expect_rc expect)
  execute_process(COMMAND "${BIN}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expect_rc)
    message(FATAL_ERROR "${ARGN}: expected exit ${expect_rc}, got ${rc}\n"
                        "${out}\n${err}")
  endif()
  if(NOT expect STREQUAL "")
    string(FIND "${out}${err}" "${expect}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${ARGN}: output lacks \"${expect}\":\n${out}\n${err}")
    endif()
  endif()
  string(FIND "${err}" "GC_CHECK" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${ARGN}: stderr carries a raw GC_CHECK report:\n${err}")
  endif()
endfunction()

run_sim(0 "" --slots 20 --policy threshold --checkpoint "${ckpt}" --quiet)
# Different sleep-policy flags: refused by the scenario hash.
run_sim(1 "resuming under a different scenario spec is refused"
        --slots 40 --policy always-on --resume "${ckpt}" --quiet)
run_sim(1 "resuming under a different scenario spec is refused"
        --slots 40 --policy hysteresis --resume "${ckpt}" --quiet)
run_sim(1 "resuming under a different scenario spec is refused"
        --slots 40 --policy threshold --sleep-threshold 3 --resume "${ckpt}"
        --quiet)
# The other resume refusals are plain too.
run_sim(1 "is beyond the horizon 10"
        --slots 10 --policy threshold --resume "${ckpt}" --quiet)
run_sim(1 "no checkpoint found at ${DIR}/no-such.ckpt"
        --slots 40 --resume "${DIR}/no-such.ckpt" --quiet)
# The same flags resume.
run_sim(0 "" --slots 40 --policy threshold --resume "${ckpt}" --quiet)

# A supervised hot-reload swaps the spec file in on every start; the
# --policy flag must survive the swap.
set(spec "${DIR}/resume_identity_spec.json")
set(swap "${DIR}/resume_identity_swap.json")
file(WRITE "${spec}" "{\"name\":\"ri\"}")
file(WRITE "${swap}" "{\"name\":\"ri\",\"tariff\":{\"kind\":\"time_of_use\",\"peak_begin\":8,\"peak_end\":20,\"peak_mult\":2.0}}")
run_sim(0 "sleep policy:         threshold"
        --scenario "${spec}" --slots 20 --policy threshold
        --checkpoint "${sup}" --checkpoint-every 10 --supervise
        --reload-scenario "${swap}")

# The overrides laid over a swapped-in spec may invert its hysteresis
# band; that swap is refused like an inverted command line.
set(inverted "${DIR}/resume_identity_inverted.json")
file(WRITE "${inverted}" "{\"name\":\"ri\",\"bs\":{\"sleep\":{\"policy\":\"hysteresis\",\"sleep_threshold\":5,\"wake_threshold\":6}}}")
file(GLOB stale "${sup}*")
file(REMOVE ${stale})
run_sim(1 "wake threshold below sleep threshold"
        --scenario "${spec}" --slots 20 --wake-threshold 4
        --checkpoint "${sup}" --checkpoint-every 10 --supervise
        --reload-scenario "${inverted}")

file(GLOB done "${ckpt}*" "${sup}*" "${spec}" "${swap}" "${inverted}")
file(REMOVE ${done})
message(STATUS "resume identity ok")
