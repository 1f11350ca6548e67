# Build-time git stamp for JsonReport's meta.git_sha (bench/harness.h).
# Run with cmake -P by the fidr_git_sha target on every build; it
# rewrites OUT only when the short HEAD sha changed, so a new commit
# restamps the benches and an unchanged HEAD recompiles nothing.
#
#   cmake -DSOURCE_DIR=<checkout> -DOUT=<header> -P git_sha.cmake
execute_process(COMMAND git rev-parse --short HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE sha
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
if(NOT sha)
    set(sha "unknown")
endif()
set(stamp "#define FIDR_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
    file(READ ${OUT} old)
endif()
if(NOT old STREQUAL stamp)
    file(WRITE ${OUT} "${stamp}")
endif()
