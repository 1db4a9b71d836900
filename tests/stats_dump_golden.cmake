# Byte-for-byte check of cachetime_sim's stats dumps against the
# pinned files in tests/golden/.
#
#   cmake -DTOOL=<cachetime_sim> -DSRC=<source dir> -DOUT=<scratch dir>
#         [-DUPDATE=1] -P stats_dump_golden.cmake
#
# Two runs are pinned: a physically-addressed two-level design with
# an interval series (--stats stdout plus the --interval-csv file),
# and a two-core coherent run (--stats stdout).  The interval CSV's
# last two columns (wall_seconds, refs_per_sec) are host time and are
# dropped before the comparison.  UPDATE=1 rewrites the golden files
# from the current tool instead of comparing.

set(golden ${SRC}/tests/golden)
file(MAKE_DIRECTORY ${OUT})

function(run_tool stdout_file)
    execute_process(COMMAND ${TOOL} ${ARGN}
                    OUTPUT_FILE ${stdout_file}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "cachetime_sim ${ARGN} exited with ${rc}")
    endif()
endfunction()

run_tool(${OUT}/two_level_physical.stats
    --stats --spec ${SRC}/configs/baseline.spec
    --vary ${SRC}/configs/two_level.vary
    --vary ${SRC}/configs/physical.vary
    --workloads 0.01 --interval-stats 5000
    --interval-csv ${OUT}/interval_raw.csv)
run_tool(${OUT}/two_core.stats --stats --cores 2 --workloads 0.01)

file(READ ${OUT}/interval_raw.csv csv)
string(REGEX REPLACE ",[^,\n]*,[^,\n]*\n" "\n" csv "${csv}")
file(WRITE ${OUT}/two_level_physical.interval.csv "${csv}")

foreach(name two_level_physical.stats two_level_physical.interval.csv
             two_core.stats)
    if(UPDATE)
        configure_file(${OUT}/${name} ${golden}/${name} COPYONLY)
        continue()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${golden}/${name} ${OUT}/${name}
                    RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "${OUT}/${name} differs from "
                            "${golden}/${name}")
    endif()
endforeach()
