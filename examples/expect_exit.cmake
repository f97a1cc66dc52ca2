# ctest helper: runs PROGRAM with the space-separated ARGS and passes only
# when it exits with status EXIT_CODE after writing exactly one
# "<program name>: <message>" line to stderr, which must match the regex
# MATCH when one is given.
#
#   cmake -DPROGRAM=<path> "-DARGS=<flags>" -DEXIT_CODE=1 [-DMATCH=<regex>]
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
get_filename_component(name "${PROGRAM}" NAME_WE)
if(NOT status STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR
          "${name} ${ARGS}: exit status ${status}, expected ${EXIT_CODE}\n"
          "${err}")
endif()
if(NOT err MATCHES "^${name}: [^\n]+\n$")
  message(FATAL_ERROR
          "${name} ${ARGS}: stderr is not one \"${name}: ...\" line:\n${err}")
endif()
if(DEFINED MATCH AND NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR
          "${name} ${ARGS}: stderr does not match \"${MATCH}\":\n${err}")
endif()
