# ctest script: runs benchdiff on two fixture documents whose modeled
# series diverge from point 3 on, and requires exit status 1 plus the
# first-differing-point row.
#   cmake -DBENCHDIFF=<exe> -DBASE=<json> -DCUR=<json> -P <this file>
execute_process(COMMAND ${BENCHDIFF} ${BASE} ${CUR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "benchdiff exited ${rc}, expected 1\n${out}${err}")
endif()
set(row "| timeseries.nvbm.lines_read first diff at point 3 (t=6) | exact (modeled) | 130 | 131 | **REGRESS** |")
string(FIND "${out}" "${row}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "missing row:\n${row}\nin output:\n${out}")
endif()
