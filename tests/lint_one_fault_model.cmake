# One fault model: the salt words that derive every fault decision are
# private to congest/fault.{hpp,cpp}. Any other source under src/ naming
# a kSalt* constant is re-deriving fault fates on its own, which is how
# executors drift apart. Run as
#   cmake -DSRC_DIR=<repo>/src -P lint_one_fault_model.cmake
if(NOT SRC_DIR)
  message(FATAL_ERROR "pass -DSRC_DIR=<path to src>")
endif()
file(GLOB_RECURSE sources "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cpp")
set(offenders "")
foreach(path IN LISTS sources)
  file(RELATIVE_PATH rel "${SRC_DIR}" "${path}")
  if(rel STREQUAL "congest/fault.hpp" OR rel STREQUAL "congest/fault.cpp")
    continue()
  endif()
  file(STRINGS "${path}" hits REGEX "kSalt")
  if(hits)
    list(APPEND offenders "${rel}")
  endif()
endforeach()
if(offenders)
  message(FATAL_ERROR "kSalt* named outside congest/fault.{hpp,cpp}: "
                      "${offenders}; call fault_detail::fate() / "
                      "shuffle_inbox() instead")
endif()
list(LENGTH sources scanned)
message(STATUS "one fault model: ${scanned} sources clean")
