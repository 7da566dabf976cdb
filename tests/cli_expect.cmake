# Runs grouting_cli once and checks how it ended:
#
#   cmake -DCLI=<grouting_cli> -DARGS="<flags>" -DEXPECT=reject|accept
#         -DREGEX=<pattern> -P tests/cli_expect.cmake
#
# reject: exit status 1, nothing on stdout (the run never started) and a
#         diagnostic matching REGEX on stderr.
# accept: exit status 0 and REGEX on stdout.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${CLI}" ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 120)
set(seen "exit status: ${status}\nstdout:\n${out}\nstderr:\n${err}")
if(EXPECT STREQUAL "reject")
  if(NOT status STREQUAL "1" OR NOT out STREQUAL "" OR NOT err MATCHES "${REGEX}")
    message(FATAL_ERROR "expected exit 1 with diagnostic '${REGEX}'\n${seen}")
  endif()
elseif(EXPECT STREQUAL "accept")
  if(NOT status STREQUAL "0" OR NOT out MATCHES "${REGEX}")
    message(FATAL_ERROR "expected exit 0 with '${REGEX}' on stdout\n${seen}")
  endif()
else()
  message(FATAL_ERROR "EXPECT must be reject or accept, got '${EXPECT}'")
endif()
