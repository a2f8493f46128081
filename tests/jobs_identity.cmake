# Runs each experiment with --quick at --jobs 1 (inline) and --jobs 4
# (the whole sweep fanned out over a pool) and asserts that the JSON
# reports and the printed tables are byte-identical.
#
# Usage:
#   cmake -DCELLBW=<cellbw> -DWORKDIR=<scratch dir> -P jobs_identity.cmake

foreach(var CELLBW WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "missing -D${var}")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# Each --jobs value writes into its own directory under the same file
# names, since the table output names the report path.
foreach(exp abl_queue_depth fig08_spe_mem)
    foreach(jobs 1 4)
        file(MAKE_DIRECTORY "${WORKDIR}/j${jobs}")
        execute_process(
            COMMAND "${CELLBW}" run ${exp} --quick --jobs ${jobs}
                    --json "${exp}.json"
            WORKING_DIRECTORY "${WORKDIR}/j${jobs}"
            OUTPUT_FILE "${WORKDIR}/j${jobs}/${exp}.txt"
            ERROR_VARIABLE err
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${exp} --jobs ${jobs} failed: ${rc}\n"
                                "${err}")
        endif()
    endforeach()
    foreach(ext json txt)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    "${WORKDIR}/j1/${exp}.${ext}"
                    "${WORKDIR}/j4/${exp}.${ext}"
            RESULT_VARIABLE same)
        if(NOT same EQUAL 0)
            message(FATAL_ERROR "${exp}: the --jobs 1 and --jobs 4 "
                                "${ext} outputs differ")
        endif()
    endforeach()
endforeach()

message(STATUS "abl_queue_depth, fig08_spe_mem: --jobs 1 == --jobs 4")
