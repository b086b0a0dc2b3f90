# Run one bench invocation and check its exit code and output:
#   cmake -DBIN=<exe> -DARGS="<args>" -DCODE=<n>
#         [-DSTDOUT_RE=<regex>] [-DSTDERR_RE=<regex>] -P check_cli.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(report "stdout:\n${out}\nstderr:\n${err}")
if(NOT code STREQUAL "${CODE}")
    message(FATAL_ERROR "exit ${code}, expected ${CODE}\n${report}")
endif()
if(DEFINED STDOUT_RE AND NOT out MATCHES "${STDOUT_RE}")
    message(FATAL_ERROR "stdout does not match '${STDOUT_RE}'\n${report}")
endif()
if(DEFINED STDERR_RE AND NOT err MATCHES "${STDERR_RE}")
    message(FATAL_ERROR "stderr does not match '${STDERR_RE}'\n${report}")
endif()
