# Experiment drivers (one per paper figure/table) plus google-benchmark
# micro-benchmarks. Included from the top-level CMakeLists so the binaries
# land alone in ${CMAKE_BINARY_DIR}/bench.
function(evps_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    evps_workloads evps_metrics evps_broker evps_evolving
    evps_matching evps_message evps_expr evps_sim evps_common)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

# Google-benchmark micro benches; each defines its own main() (see
# bench/gbench_main.hpp) so results are dumped to BENCH_*.json by default.
#
# Each micro bench also registers a `bench_smoke_<name>` ctest entry that runs
# every benchmark for a minimal time, so CI catches benches that crash or
# assert without paying for a full measurement run. Extra arguments are
# forwarded to the binary (e.g. a --benchmark_filter excluding slow cases).
function(evps_gbench name)
  evps_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
  target_compile_definitions(${name} PRIVATE EVPS_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  add_test(NAME bench_smoke_${name}
    COMMAND ${name} --benchmark_min_time=0.01
      --benchmark_out=${CMAKE_BINARY_DIR}/bench/SMOKE_${name}.json
      --benchmark_out_format=json ${ARGN}
    WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  set_tests_properties(bench_smoke_${name} PROPERTIES LABELS bench-smoke)
endfunction()

evps_bench(fig6_traffic)
evps_bench(fig7_accuracy)
evps_bench(fig8_processing)
evps_bench(fig9_evolution_volume)
evps_bench(fig10ab_throughput)
evps_bench(fig10c_visibility)
evps_bench(table1_summary)
evps_bench(ablation_hybrid)
evps_bench(ablation_matcher)
evps_bench(routing_covering)
# The covering-routing bench is cheap and self-checking (nonzero exit when
# covering on/off delivery logs diverge): run it whole as a smoke test.
add_test(NAME bench_smoke_routing_covering
  COMMAND routing_covering ${CMAKE_BINARY_DIR}/bench/BENCH_routing.json
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
set_tests_properties(bench_smoke_routing_covering PROPERTIES LABELS bench-smoke)
evps_bench(overlay_batch)
# Also cheap and self-checking (nonzero exit when batched delivery logs
# diverge from the per-message baseline, events drift, or the batch=64
# amortisation drops below 5 events/message). Writes to its own file: both
# overlay benches read-modify-write a shared results file, which would race
# under `ctest -j`.
add_test(NAME bench_smoke_overlay_batch
  COMMAND overlay_batch ${CMAKE_BINARY_DIR}/bench/BENCH_overlay_batch.json
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
set_tests_properties(bench_smoke_overlay_batch PROPERTIES LABELS bench-smoke)
evps_gbench(micro_expr)
# Population-heavy cases stay out of the smoke run (the 100k point-insert
# fill alone takes ~15s, and the maintenance sweep goes to 1M): smoke keeps
# the 10k variants, which still exercise the bulk-build and per-op paths.
evps_gbench(micro_matcher
  "--benchmark_filter=-(BM_LargePopulationMatch|BM_MaintenanceSweep<.*>/(100000|1000000)|BM_BulkRebuild/100000)")
# Building the 10k-resident populations dominates this bench (CLEES most of
# all): smoke keeps one point of every benchmark function — the 100/1000
# matches, K=4 sharded matching, K=4 batches of 8 and the small evolution
# rounds. google-benchmark rebuilds the population in every round it runs
# to size the iteration count, so the smoke also lowers the minimum time
# (the later flag wins) to keep that to one or two rounds. LEES rows run a
# fixed iteration count, which google-benchmark appends to their names.
evps_gbench(micro_engines --benchmark_min_time=0.001
  "--benchmark_filter=^BM_(VesMatch|LeesMatch|CleesMatch|VesEvolutionRound)/(100|1000)(/iterations:[0-9]+)?$|ShardedMatch/10000/4(/iterations:[0-9]+)?$|MatchBatch/10000/4/8(/iterations:[0-9]+)?$")
