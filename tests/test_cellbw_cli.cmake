# Exercises the cellbw driver's error paths end to end: unknown
# experiment names, malformed manifests, a corrupted cache entry
# (which must degrade to a miss, not poison the run), validate
# against a missing baseline directory, the retired --sim-jobs,
# --trace-capacity and --placement flags, configs that fail
# validation, out-of-range --jobs values, and the --verify counts.
#
# Usage:
#   cmake -DCELLBW=<cellbw> -DWORKDIR=<scratch dir> -P test_cellbw_cli.cmake

foreach(var CELLBW WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "missing -D${var}")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# run_cellbw(<name> <expected rc> <args...>): runs cellbw in WORKDIR and
# stores stdout/stderr in <name>_out / <name>_err.
function(run_cellbw name expect_rc)
    execute_process(
        COMMAND "${CELLBW}" ${ARGN}
        WORKING_DIRECTORY "${WORKDIR}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc
        TIMEOUT 120)
    if(expect_rc STREQUAL "nonzero")
        if(rc EQUAL 0)
            message(FATAL_ERROR "${name}: expected failure, got rc=0\n"
                                "stdout:\n${out}\nstderr:\n${err}")
        endif()
    elseif(NOT rc EQUAL ${expect_rc})
        message(FATAL_ERROR "${name}: expected rc=${expect_rc}, "
                            "got rc=${rc}\n"
                            "stdout:\n${out}\nstderr:\n${err}")
    endif()
    set(${name}_out "${out}" PARENT_SCOPE)
    set(${name}_err "${err}" PARENT_SCOPE)
endfunction()

# --- 1. Unknown experiment name -------------------------------------
run_cellbw(badrun nonzero run no_such_experiment --quick)
if(NOT badrun_err MATCHES "unknown experiment 'no_such_experiment'")
    message(FATAL_ERROR "bad run message unhelpful:\n${badrun_err}")
endif()

# --- 2. Malformed manifest line -------------------------------------
file(WRITE "${WORKDIR}/bad.manifest"
     "# comment line is fine\n"
     "ls_spu_ls\n"
     "not_an_experiment --quick\n")
run_cellbw(badsuite nonzero suite bad.manifest --quick)
if(NOT badsuite_err MATCHES "bad.manifest:3: unknown experiment")
    message(FATAL_ERROR
            "manifest error lacks file:line context:\n${badsuite_err}")
endif()

# Unreadable manifest path is a clear error, not an empty suite.
run_cellbw(nomanifest nonzero suite no/such.manifest --quick)
if(NOT nomanifest_err MATCHES "cannot read manifest")
    message(FATAL_ERROR "missing-manifest message:\n${nomanifest_err}")
endif()

# --- 3. Corrupt cache entry degrades to a miss ----------------------
file(WRITE "${WORKDIR}/mini.manifest" "ls_spu_ls\n")
run_cellbw(cold 0 suite mini.manifest --quick --out cold --cache cache)
if(NOT cold_out MATCHES "cache hits: 0/1")
    message(FATAL_ERROR "cold run was not a miss:\n${cold_out}")
endif()

# Truncate every stored report; the .key files stay valid, so a naive
# cache would replay the damaged bytes into the output tree.
file(GLOB_RECURSE entries "${WORKDIR}/cache/*.json")
list(LENGTH entries n)
if(n EQUAL 0)
    message(FATAL_ERROR "cold run stored no cache entries")
endif()
foreach(entry ${entries})
    file(READ "${entry}" bytes LIMIT 40)
    file(WRITE "${entry}" "${bytes}")
endforeach()

run_cellbw(corrupt 0 suite mini.manifest --quick --out corrupt
           --cache cache)
if(NOT corrupt_out MATCHES "cache hits: 0/1")
    message(FATAL_ERROR
            "corrupt entry was replayed as a hit:\n${corrupt_out}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORKDIR}/cold/ls_spu_ls.json"
            "${WORKDIR}/corrupt/ls_spu_ls.json"
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "rerun after corruption differs from cold run")
endif()

# The rerun repaired the entry: a third pass is a hit again.
run_cellbw(healed 0 suite mini.manifest --quick --out healed
           --cache cache)
if(NOT healed_out MATCHES "cache hits: 1/1")
    message(FATAL_ERROR "repaired entry did not hit:\n${healed_out}")
endif()

# --- 3b. cache prune ------------------------------------------------
# A generous budget scans without evicting; the healed entry stays hot.
run_cellbw(prune_noop 0 cache prune --max-bytes 1G --cache cache)
if(NOT prune_noop_out MATCHES "1 entries / [0-9]+ bytes scanned")
    message(FATAL_ERROR "prune scan miscounted:\n${prune_noop_out}")
endif()
if(NOT prune_noop_out MATCHES "0 entries / 0 bytes evicted")
    message(FATAL_ERROR "no-op prune evicted:\n${prune_noop_out}")
endif()
run_cellbw(stillhot 0 suite mini.manifest --quick --out stillhot
           --cache cache)
if(NOT stillhot_out MATCHES "cache hits: 1/1")
    message(FATAL_ERROR "entry lost by no-op prune:\n${stillhot_out}")
endif()

# Budget zero empties the cache; the next pass re-simulates.
run_cellbw(prune_all 0 cache prune --max-bytes 0 --cache cache)
if(NOT prune_all_out MATCHES "1 entries / [0-9]+ bytes evicted")
    message(FATAL_ERROR "prune to zero kept entries:\n${prune_all_out}")
endif()
run_cellbw(cold2 0 suite mini.manifest --quick --out cold2
           --cache cache)
if(NOT cold2_out MATCHES "cache hits: 0/1")
    message(FATAL_ERROR "evicted entry still hit:\n${cold2_out}")
endif()

# Missing --max-bytes is a usage error, not an accidental full wipe.
run_cellbw(prune_bad nonzero cache prune --cache cache)
if(NOT prune_bad_err MATCHES "--max-bytes")
    message(FATAL_ERROR "prune usage message:\n${prune_bad_err}")
endif()

# --- 4. validate without baselines ----------------------------------
run_cellbw(noval 2 validate --quick --baselines no/such/dir)
if(NOT noval_err MATCHES "cellbw validate:")
    message(FATAL_ERROR "validate error message:\n${noval_err}")
endif()

# --- 5. Retired flags are rejected by name -------------------------
# Runs are serial inside one simulation, there is no event recorder,
# and cluster placement is swept by cluster_halo itself: the flags that
# once picked a thread count for the partitioned engine, bounded the
# recorder and set a placement nothing read must fail loudly, not be
# silently ignored.
run_cellbw(simjobs nonzero run abl_dualchip --quick --sim-jobs 2)
if(NOT simjobs_err MATCHES "--sim-jobs")
    message(FATAL_ERROR "--sim-jobs rejection does not name the flag:\n"
                        "${simjobs_err}")
endif()
run_cellbw(tracecap nonzero run abl_dualchip --quick --trace-capacity 5)
if(NOT tracecap_err MATCHES "--trace-capacity")
    message(FATAL_ERROR "--trace-capacity rejection does not name the "
                        "flag:\n${tracecap_err}")
endif()
run_cellbw(placement nonzero run cluster_halo --quick --placement locality)
if(NOT placement_err MATCHES "--placement")
    message(FATAL_ERROR "--placement rejection does not name the flag:\n"
                        "${placement_err}")
endif()

# --- 6. Configs the components reject exit 1 with a named error -----
# A component of size zero is rejected while parsing: the run exits 1
# naming the flag and prints nothing, not even the experiment header.
foreach(flag rings mfc-queue-depth mfc-mem-tokens mfc-ls-lines)
    run_cellbw(zero 1 run ls_spu_ls --quick --${flag} 0)
    if(NOT zero_err MATCHES "ls_spu_ls: --${flag} must be at least 1")
        message(FATAL_ERROR "--${flag} 0 message:\n${zero_err}")
    endif()
    if(NOT zero_out STREQUAL "")
        message(FATAL_ERROR "--${flag} 0 printed to stdout:\n${zero_out}")
    endif()
endforeach()

# A NaN clock is rejected while parsing, before any simulation can
# spin on it.
run_cellbw(ghznan 1 run fig08_spe_mem --quick --cpu-ghz nan)
if(NOT ghznan_err MATCHES "--cpu-ghz must be finite")
    message(FATAL_ERROR "--cpu-ghz nan message:\n${ghznan_err}")
endif()

# --- 7. --jobs out of range is a usage error -------------------------
# A negative count must not wrap to four billion workers: suite and
# validate reject it before starting any pool.
run_cellbw(suitejobs 2 suite ci --quick --jobs -1 --no-cache)
if(NOT suitejobs_err MATCHES "bad --jobs value '-1'")
    message(FATAL_ERROR "suite --jobs -1 message:\n${suitejobs_err}")
endif()
run_cellbw(valjobs 2 validate --quick --jobs -1 --no-cache)
if(NOT valjobs_err MATCHES "bad --jobs value '-1'")
    message(FATAL_ERROR "validate --jobs -1 message:\n${valjobs_err}")
endif()

# --- 8. --verify shows up in the report -----------------------------
# Corrupted payloads are retried by the communicator; every transfer
# that completed clean is checked and none diverges.
run_cellbw(verify 0 run msg_pingpong --quick --fault-corrupt-rate=0.05
           --verify --json verify.json)
file(READ "${WORKDIR}/verify.json" verify_json)
if(NOT verify_json MATCHES "\"verify\\.transfers_checked\": *([0-9]+)")
    message(FATAL_ERROR "no verify.transfers_checked in the report")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR "--verify checked no transfers")
endif()
if(NOT verify_json MATCHES "\"verify\\.divergences\": *0[^0-9]")
    message(FATAL_ERROR "--verify reports divergences:\n${verify_json}")
endif()

message(STATUS "cellbw CLI error paths behave")
