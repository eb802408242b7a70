# CLI digest-label regression (run with cmake -P; pass -DDCM_RUN=<binary>).
#
# `dcm_run run <scenario> --digest` must print the canonical
# registry-pinned result_digest of the single root-seed run — not a sweep
# digest over a derived seed — and must say which digest it is printing.
# The quickstart value below is the same pin registry_digest_test asserts.
if(NOT DEFINED DCM_RUN)
  message(FATAL_ERROR "pass -DDCM_RUN=<path to dcm_run>")
endif()

execute_process(
  COMMAND ${DCM_RUN} run quickstart --digest --quiet
  OUTPUT_VARIABLE run_out
  RESULT_VARIABLE run_rc
  OUTPUT_STRIP_TRAILING_WHITESPACE)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "dcm_run run quickstart --digest failed (rc=${run_rc})")
endif()
if(NOT run_out STREQUAL "result_digest 8007654335316031933")
  message(FATAL_ERROR "run --digest must print the canonical result_digest, got: ${run_out}")
endif()

execute_process(
  COMMAND ${DCM_RUN} sweep quickstart --axis controller.kind=ec2,dcm --digest --quiet
  OUTPUT_VARIABLE sweep_out
  RESULT_VARIABLE sweep_rc
  OUTPUT_STRIP_TRAILING_WHITESPACE)
if(NOT sweep_rc EQUAL 0)
  message(FATAL_ERROR "dcm_run sweep --digest failed (rc=${sweep_rc})")
endif()
if(NOT sweep_out MATCHES "^sweep_digest [0-9]+$")
  message(FATAL_ERROR "sweep --digest must be labelled sweep_digest, got: ${sweep_out}")
endif()

execute_process(
  COMMAND ${DCM_RUN} tournament quickstart --controllers ec2,queueing
          --set run.duration=90 --digest --quiet
  OUTPUT_VARIABLE tournament_out
  RESULT_VARIABLE tournament_rc
  OUTPUT_STRIP_TRAILING_WHITESPACE)
if(NOT tournament_rc EQUAL 0)
  message(FATAL_ERROR "dcm_run tournament --digest failed (rc=${tournament_rc})")
endif()
if(NOT tournament_out MATCHES "^scorecard_digest [0-9]+$")
  message(FATAL_ERROR "tournament --digest must be labelled scorecard_digest, got: ${tournament_out}")
endif()

# Overrides that flip a kind or a gate drop the base keys that stop
# applying (one override path for run, sweep and tournament). Tracing is
# digest-neutral, so the untraced diamond run still prints its registry pin.
execute_process(
  COMMAND ${DCM_RUN} run diamond-cache --set trace.enabled=false --digest --quiet
  OUTPUT_VARIABLE untraced_out
  RESULT_VARIABLE untraced_rc
  OUTPUT_STRIP_TRAILING_WHITESPACE)
if(NOT untraced_rc EQUAL 0)
  message(FATAL_ERROR "dcm_run run diamond-cache --set trace.enabled=false failed (rc=${untraced_rc})")
endif()
if(NOT untraced_out STREQUAL "result_digest 3232967541302041960")
  message(FATAL_ERROR "untraced diamond-cache must print the pinned digest, got: ${untraced_out}")
endif()

execute_process(
  COMMAND ${DCM_RUN} tournament chaos-resilience --controllers ec2
          --set resilience.enabled=false --set run.duration=60 --digest --quiet
  OUTPUT_QUIET
  ERROR_QUIET
  RESULT_VARIABLE unarmed_rc)
if(NOT unarmed_rc EQUAL 0)
  message(FATAL_ERROR "tournament --set resilience.enabled=false failed (rc=${unarmed_rc})")
endif()

# A hostile value is a clean usage error (exit 1, the key named on stderr),
# never an abort (SIGABRT, exit 134) inside the simulator.
execute_process(
  COMMAND ${DCM_RUN} run quickstart --set hardware.web=0 --quiet
  OUTPUT_QUIET
  ERROR_VARIABLE hostile_err
  RESULT_VARIABLE hostile_rc)
if(NOT hostile_rc EQUAL 1)
  message(FATAL_ERROR "run quickstart --set hardware.web=0 must exit 1, got rc=${hostile_rc}")
endif()
if(NOT hostile_err MATCHES "\\[hardware\\] web")
  message(FATAL_ERROR "the hostile-value error must name [hardware] web, got: ${hostile_err}")
endif()

# The same for the hostile values that used to abort (a [controller] or
# [trace] value outside its domain) or run silently wrong (an int key
# overflowing int and narrowing to a small value).
function(expect_usage_error key)
  execute_process(
    COMMAND ${DCM_RUN} ${ARGN} --quiet
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "dcm_run ${ARGN} must exit 1, got rc=${rc}")
  endif()
  string(REPLACE "[" "\\[" key_regex "${key}")
  string(REPLACE "]" "\\]" key_regex "${key_regex}")
  if(NOT err MATCHES "${key_regex}")
    message(FATAL_ERROR "dcm_run ${ARGN} must name ${key}, got: ${err}")
  endif()
endfunction()
expect_usage_error("[controller] headroom" run fig5 --set controller.headroom=0.5)
expect_usage_error("[trace] rate"
                   run quickstart --set trace.enabled=true --set trace.rate=nan)
expect_usage_error("[workload] users" run quickstart --set workload.users=4294967396)
# The threshold rule's predictive flag is gone: the predictive family at
# alpha = beta = horizon = 1 issues its scale-outs.
expect_usage_error("[controller] predictive"
                   run fig5-ec2 --set controller.predictive=true)

# Run events live in the run's result, not on stderr: a chaos run and a
# parallel chaos tournament (crashes, ejections, watchdog freezes in every
# cell) write nothing to stderr and still print their pinned digests.
function(expect_quiet_digest expected)
  execute_process(
    COMMAND ${DCM_RUN} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    OUTPUT_STRIP_TRAILING_WHITESPACE)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dcm_run ${ARGN} failed (rc=${rc})")
  endif()
  if(NOT err STREQUAL "")
    message(FATAL_ERROR "dcm_run ${ARGN} must write nothing to stderr, got: ${err}")
  endif()
  if(NOT out STREQUAL "${expected}")
    message(FATAL_ERROR "dcm_run ${ARGN} must print ${expected}, got: ${out}")
  endif()
endfunction()
expect_quiet_digest("result_digest 11487354307476855148"
                    run chaos-resilience --digest --quiet)
expect_quiet_digest("result_digest 3725650455189126203" run fig5-ec2 --digest --quiet)
expect_quiet_digest("scorecard_digest 983756083291032948"
                    tournament chaos-resilience --controllers dcm,ec2 --jobs 2 --digest --quiet)

message(STATUS "dcm_run digest labels OK")
