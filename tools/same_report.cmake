# Re-analysis check: sweeping a saved arena must report exactly what a
# fresh run of the workload that produced it reports.
#
#   cmake -DMBAVF=path/to/mbavf -DARENA=arena.bin [-DSTRUCTURE=vgpr]
#         -P same_report.cmake
#
# ARENA must have been written by `mbavf --workload=histogram
# --modes=4 --structure=STRUCTURE --arena-out=ARENA` (STRUCTURE
# defaults to l1). Only the first paragraph of each output (the input
# banner) may differ; the report after it (configuration line, AVF
# table, SER) must match byte for byte.

if(NOT DEFINED STRUCTURE)
    set(STRUCTURE l1)
endif()

function(run_report out_var)
    execute_process(COMMAND ${MBAVF} ${ARGN}
                    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "mbavf ${ARGN} exited with ${rc}:\n${out}")
    endif()
    string(FIND "${out}" "\n\n" body)
    if(body EQUAL -1)
        message(FATAL_ERROR "mbavf ${ARGN} printed no report:\n${out}")
    endif()
    string(SUBSTRING "${out}" ${body} -1 report)
    set(${out_var} "${report}" PARENT_SCOPE)
endfunction()

run_report(from_workload --workload=histogram --modes=4
           --structure=${STRUCTURE})
run_report(from_arena --arena-in=${ARENA} --modes=4
           --structure=${STRUCTURE})
if(NOT from_workload STREQUAL from_arena)
    message(FATAL_ERROR "arena report differs from the workload run\n"
            "workload:${from_workload}\narena:${from_arena}")
endif()
message(STATUS "arena report matches the workload run")
