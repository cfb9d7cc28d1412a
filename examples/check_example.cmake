# Run one example (or experiment bench) binary and compare its output with
# the golden files.
#
#   cmake -DEXE=<binary> -DNAME=<example> -DGOLDEN_DIR=<dir> [-DSARIF=ON]
#         -P check_example.cmake
#
# The example must exit 0 and its stdout must equal <GOLDEN_DIR>/<NAME>.txt.
# With SARIF=ON the example gets <NAME>.sarif (in the working directory) as
# its report path, and that file must equal <GOLDEN_DIR>/<NAME>.sarif. The
# actual output stays next to the binary as <NAME>.out for inspection.
set(args)
if(SARIF)
  set(args ${NAME}.sarif)
endif()
execute_process(COMMAND ${EXE} ${args}
                OUTPUT_FILE ${NAME}.out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${NAME}.out ${GOLDEN_DIR}/${NAME}.txt
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${NAME}: stdout differs from ${GOLDEN_DIR}/${NAME}.txt "
                      "(actual output: ${NAME}.out)")
endif()
if(SARIF)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${NAME}.sarif ${GOLDEN_DIR}/${NAME}.sarif
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${NAME}: ${NAME}.sarif differs from "
                        "${GOLDEN_DIR}/${NAME}.sarif")
  endif()
endif()
