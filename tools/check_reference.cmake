# Run the benchmark program, vpirbench, on one workload at its
# reference length and check every cell against the committed
# reference:
#
#   cmake -DVPIRBENCH=<vpirbench binary> -DWORKLOAD=table1|stall|limit
#         -DREFERENCE=<perfbench/reference/W.json> -P check_reference.cmake
#
# Runs `vpirbench W --seed 1 --passes 1 --insts <the reference's insts>`
# and fails unless it exits 0, prints W's mode line, fails no cell, and
# gives each cell the reference's digest under the same key, with no
# key missing or extra on either side. Written for CMake's own JSON
# reader, so the check needs no interpreter.
cmake_minimum_required(VERSION 3.19)

foreach(var VPIRBENCH WORKLOAD REFERENCE)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_reference: -D${var}=... is required")
    endif()
endforeach()

file(READ "${REFERENCE}" ref)
string(JSON insts GET "${ref}" insts)
string(JSON nref LENGTH "${ref}" digests)

execute_process(
    COMMAND "${VPIRBENCH}" ${WORKLOAD} --seed 1 --passes 1 --insts ${insts}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_reference: vpirbench ${WORKLOAD} exited "
                        "with ${rc}")
endif()
string(JSON mode ERROR_VARIABLE err GET "${out}" mode)
if(err OR NOT mode STREQUAL WORKLOAD)
    message(FATAL_ERROR "check_reference: no \"mode\":\"${WORKLOAD}\" line "
                        "in the output:\n${out}")
endif()

# One pass: its cells, as many as the reference's, each under a key
# the reference has and none twice, cover the reference key for key.
set(bad 0)
set(keys "")
string(JSON ncells LENGTH "${out}" passes 0 cells)
if(NOT ncells EQUAL nref)
    message(SEND_ERROR "check_reference: ${ncells} cells, the reference "
                       "${nref}")
    math(EXPR bad "${bad} + 1")
endif()
math(EXPR last_cell "${ncells} - 1")
foreach(c RANGE ${last_cell})
    string(JSON key GET "${out}" passes 0 cells ${c} key)
    string(JSON failed GET "${out}" passes 0 cells ${c} failed)
    string(JSON digest GET "${out}" passes 0 cells ${c} digest)
    string(JSON want ERROR_VARIABLE missing GET "${ref}" digests ${key})
    if(failed)
        message(SEND_ERROR "check_reference: ${key}: cell failed")
        math(EXPR bad "${bad} + 1")
    elseif(missing)
        message(SEND_ERROR "check_reference: ${key}: not in the reference")
        math(EXPR bad "${bad} + 1")
    elseif(NOT digest STREQUAL want)
        message(SEND_ERROR "check_reference: ${key}: digest ${digest}, "
                           "reference ${want}")
        math(EXPR bad "${bad} + 1")
    elseif(key IN_LIST keys)
        message(SEND_ERROR "check_reference: ${key}: listed twice")
        math(EXPR bad "${bad} + 1")
    endif()
    list(APPEND keys "${key}")
endforeach()

if(bad GREATER 0)
    message(FATAL_ERROR "check_reference: ${WORKLOAD}: ${bad} cell(s) "
                        "differ from ${REFERENCE}")
endif()
message(STATUS "check_reference: ${WORKLOAD}: ${nref} cells, every digest "
               "matches")
