# One table lists every environment variable: the PP_* names the code reads
# must be exactly the rows of DESIGN.md's environment table. A name counts
# as read when it is a string literal passed to getenv or env_bounded in
# src/, examples/ or bench/, also when the literal sits on the next line.
# Invoked by ctest: cmake -DSOURCE_DIR=<repository root> -P env_table.cmake
if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repository root>")
endif()

file(GLOB_RECURSE sources
  ${SOURCE_DIR}/src/*.cpp ${SOURCE_DIR}/src/*.hpp
  ${SOURCE_DIR}/examples/*.cpp ${SOURCE_DIR}/examples/*.hpp
  ${SOURCE_DIR}/bench/*.cpp ${SOURCE_DIR}/bench/*.hpp)
set(read_names "")
foreach(src ${sources})
  file(READ ${src} text)
  string(REGEX MATCHALL "(getenv|env_bounded)\\([ \t\r\n]*\"PP_[A-Z0-9_]+\""
         calls "${text}")
  foreach(call ${calls})
    string(REGEX MATCH "PP_[A-Z0-9_]+" name "${call}")
    list(APPEND read_names ${name})
  endforeach()
endforeach()
list(REMOVE_DUPLICATES read_names)
list(SORT read_names)

# The table runs from its header row to the first blank line.
file(READ ${SOURCE_DIR}/DESIGN.md design)
string(FIND "${design}" "| Variable | Effect |" at)
if(at EQUAL -1)
  message(FATAL_ERROR "DESIGN.md has no '| Variable | Effect |' table")
endif()
string(SUBSTRING "${design}" ${at} -1 table)
string(FIND "${table}" "\n\n" end)
string(SUBSTRING "${table}" 0 ${end} table)
string(REGEX MATCHALL "\n\\| `PP_[A-Z0-9_]+" rows "${table}")
set(table_names "")
foreach(row ${rows})
  string(REGEX MATCH "PP_[A-Z0-9_]+" name "${row}")
  list(APPEND table_names ${name})
endforeach()
set(unique_rows ${table_names})
list(REMOVE_DUPLICATES unique_rows)
if(NOT table_names STREQUAL unique_rows)
  message(FATAL_ERROR "DESIGN.md's environment table repeats a row: ${table_names}")
endif()
list(SORT table_names)

set(unlisted ${read_names})
list(REMOVE_ITEM unlisted ${table_names})
set(unread ${table_names})
list(REMOVE_ITEM unread ${read_names})
if(unlisted OR unread)
  message(FATAL_ERROR
    "DESIGN.md's environment table and the code disagree.\n"
    "  read but not in the table: ${unlisted}\n"
    "  in the table but not read: ${unread}")
endif()
list(LENGTH read_names n)
message(STATUS "${n} environment variables, one table row each: ${read_names}")
