# `mstk_trace replay` must refuse a scale that is not a finite number > 0:
# exit 2 with the usage text on stderr, before any replay runs. A good
# scale on the same file replays normally.
#
#   cmake -DMSTK_TRACE=<binary> -DTRACE_FILE=<v1 trace> -P mstk_trace_cli_test.cmake
foreach(scale 0 -1 abc nan inf 2x)
  execute_process(
    COMMAND ${MSTK_TRACE} replay ${TRACE_FILE} mems sptf ${scale}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "scale '${scale}': exit ${rc}, want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "scale '${scale}': no usage text on stderr\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${MSTK_TRACE} replay ${TRACE_FILE} mems sptf 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "scale=2.0")
  message(FATAL_ERROR "scale '2': exit ${rc}\n${out}${err}")
endif()
