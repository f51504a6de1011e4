# Fails if any gtest binary registers a test whose name embeds gtest's raw
# byte dump of a parameter ("N-byte object <..>"). Such names are
# unreadable and, when the parameter holds a pointer, change from one run
# to the next; give the parameter type a PrintTo instead.
#
# Usage: cmake -P check_test_names.cmake <gtest binary>...
set(bad 0)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})
  set(binary "${CMAKE_ARGV${i}}")
  execute_process(COMMAND "${binary}" --gtest_list_tests
    OUTPUT_VARIABLE listing RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(SEND_ERROR "${binary} --gtest_list_tests exited with ${status}")
    set(bad 1)
  endif()
  string(REGEX MATCHALL "[^\n]*-byte object <[^\n]*" hits "${listing}")
  foreach(hit IN LISTS hits)
    message(SEND_ERROR "${binary}: unstable test name:${hit}")
    set(bad 1)
  endforeach()
endforeach()
if(bad)
  message(FATAL_ERROR "test names must not contain a raw parameter dump")
endif()
