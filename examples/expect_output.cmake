# Runs a program and passes only when it exits 0 AND its output matches a
# regular expression (ctest's PASS_REGULAR_EXPRESSION alone ignores the exit
# code).
#
#   cmake -DREGEX=<regex> -P expect_output.cmake -- <program> [args...]
#
# The `--` keeps cmake from parsing the program's flags as its own.
set(command)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 0 ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
message("${output}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "exit status ${status}")
endif()
if(NOT output MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match: ${REGEX}")
endif()
