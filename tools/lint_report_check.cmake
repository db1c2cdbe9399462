# Run `evps-lint --covering --json` on one shipped scenario from the source
# root (so the report's "path" is relative) and fail on any difference from
# the report checked in beside it. The report carries the exit code, every
# verdict and fold, the redundant predicate and the covering pairs.
#
#   cmake -DLINT=<evps-lint> -DSOURCE_DIR=<source root> -DSCENARIO=<name>
#         -P tools/lint_report_check.cmake
#
# To re-record a report on purpose, run the same lint command from the source
# root and redirect it into examples/scenarios/<name>.lint.json.
set(scenario examples/scenarios/${SCENARIO})
execute_process(COMMAND ${LINT} --covering --json ${scenario}.evps
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE actual)
file(READ ${SOURCE_DIR}/${scenario}.lint.json expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "evps-lint report differs from ${scenario}.lint.json:\n"
                      "expected: ${expected}\nactual:   ${actual}")
endif()
