# Run TOOL once per pinned invocation and require its stdout to be
# exactly the recorded digest line. Unlike RunTwiceCompare.cmake,
# which only compares two runs of the same build, this catches a
# change that moves every digest at once.
#
# Variables: TOOL (executable), WORKDIR.
#
# Each entry is "<args>|<expected stdout line>".

set(pins
    "--digest --iterations=50 --seed=7 --quiet|digest fuzz=0x65cda8dd4e12fee7 atum=0x706965917b8c0018 sweep=0xfa11b636b44cac6b"
    "--svc-chaos --digest --iterations=25 --seed=9 --quiet|digest chaos=0x478a69cd1b981ceb"
    "--threads=0 --digest --iterations=60 --seed=3 --quiet|digest svc=0x34d8a095a3e70d94"
)

set(failed "")
foreach(pin IN LISTS pins)
    string(FIND "${pin}" "|" bar)
    string(SUBSTRING "${pin}" 0 ${bar} args)
    math(EXPR bar "${bar} + 1")
    string(SUBSTRING "${pin}" ${bar} -1 want)
    separate_arguments(parts UNIX_COMMAND "${args}")
    execute_process(
        COMMAND ${TOOL} ${parts}
        WORKING_DIRECTORY ${WORKDIR}
        OUTPUT_VARIABLE got
        RESULT_VARIABLE rc)
    string(STRIP "${got}" got)
    if(NOT rc EQUAL 0 OR NOT got STREQUAL want)
        string(APPEND failed
               "\n  fuzz_diff ${args} (rc=${rc})\n"
               "    want: ${want}\n    got:  ${got}")
    endif()
endforeach()

if(failed)
    message(FATAL_ERROR "pinned campaign digests changed:${failed}")
endif()
