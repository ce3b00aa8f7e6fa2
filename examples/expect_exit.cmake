# Runs one command and requires both its exit code and a pattern in its
# output (ctest's PASS_REGULAR_EXPRESSION alone ignores the exit code):
#   cmake -DCLI=<exe> "-DARGS=<args>" -DEXIT_CODE=<n> "-DPATTERN=<regex>"
#         -P expect_exit.cmake
# Standard input is empty, so a command that reads it (serve) ends at once.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args} INPUT_FILE /dev/null
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT code EQUAL EXIT_CODE)
  message(FATAL_ERROR "exit code ${code}, expected ${EXIT_CODE}:\n${out}")
endif()
if(NOT out MATCHES "${PATTERN}")
  message(FATAL_ERROR "output does not match \"${PATTERN}\":\n${out}")
endif()
