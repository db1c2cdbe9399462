#!/usr/bin/env bash
# Tier-1 entry point: configure, build and test every preset, run clang-tidy
# (when installed), and smoke-run the benchmarks. CI and pre-merge checks run
# exactly this script; a clean exit means the change is green across the
# default build, ASan+UBSan, and TSan.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  cat <<'EOF'
Usage: scripts/check.sh [--quick] [--help]

  --quick   default preset only (skip sanitizers, lint, bench smoke, the
            sharded re-run and the perfbench self-test)
  --help    this text

Full mode runs, in order:
  1. default preset        build + ctest (single-shard matchers, K=1)
  2. sanitize preset       ASan + UBSan build + ctest. Runs the full test
                           set, notably the NaN/IEEE-special matcher suites
                           (test_matcher_nan, test_bound_index, and the
                           NaN-extended property/churn suites) whose
                           historical failure mode — comparator UB and
                           stale-entry use-after-reuse — is exactly what
                           these sanitizers catch.
  3. sanitize-thread       TSan build + ctest. The gate's dedicated payload
                           is tests/test_concurrency_stress: many sharded
                           matchers contending for the shared worker pool,
                           concurrent match_batch dispatches, engine lazy
                           phases fanning out one task per matcher shard,
                           and evolution ticks interleaved with matching.
                           Every other test also runs under TSan, at K=1.
  4. sharded re-run        the default-preset ctest again with
                           EVPS_MATCHER_THREADS=4 exported, so the whole
                           behavioural suite (delivery order, equivalence,
                           soundness) must pass at K=4 — with bit-identical
                           deliveries for static, VES and LEES, and CLEES
                           and hybrid versions within TT (DESIGN.md §11);
                           count-exact suites pin K=1.
  5. link-batch re-run     the default-preset ctest again with
                           EVPS_LINK_BATCH=64 exported: every broker batches
                           per-link forwards and deliveries (DESIGN.md §14),
                           and the whole suite must still be bit-identical.
  6. fuzz smoke            time-boxed run of the fuzz preset harnesses
                           (batch codec, scenario parser, and the
                           differential covering/relational soundness
                           harness) over the checked-in corpus: libFuzzer
                           under Clang, the fallback mutation driver under
                           gcc.
  7. sweep smoke           time-boxed Monte-Carlo capacity sweep: a small
                           evps-sweep run (all scenarios, --selfcheck) at
                           two worker counts, the statistical comparator's
                           --selftest, and a same-parameters comparison
                           that must report zero significant deltas. Then
                           the full sweep with BENCH_sweep.json's parameters
                           and seeds, compared against that baseline: any
                           significant delta or changed fingerprint fails.
  8. clang-tidy lint, bench smoke
  9. perfbench self-test   builds the end-to-end benchmark (perfbench/, an
                           optimised build under .bench_build/) against the
                           library and runs its self-test: determinism,
                           trace neutrality and the delivery-preserving
                           knobs of zones_clees. Then regenerates every
                           workload's seed-11 counts line and fails on any
                           difference from scripts/perfbench_counts.txt.
EOF
}

QUICK=0
case "${1:-}" in
  --quick) QUICK=1 ;;
  --help|-h) usage; exit 0 ;;
  "") ;;
  *) usage >&2; exit 2 ;;
esac

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

run_preset() {
  local preset="$1"
  echo "=== preset: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${JOBS}"
  ctest --preset "${preset}"
}

run_preset default

if [[ "${QUICK}" == "0" ]]; then
  run_preset sanitize
  run_preset sanitize-thread

  echo "=== default preset, EVPS_MATCHER_THREADS=4 ==="
  EVPS_MATCHER_THREADS=4 ctest --preset default

  echo "=== default preset, EVPS_LINK_BATCH=64 ==="
  EVPS_LINK_BATCH=64 ctest --preset default

  echo "=== fuzz smoke ==="
  # Time-boxed: each harness replays the corpus then mutates for at most
  # 10s / 5000 runs, whichever comes first. Any crash or round-trip
  # violation aborts the harness and fails the script.
  cmake --preset fuzz
  cmake --build --preset fuzz -j "${JOBS}" --target fuzz_batch_codec fuzz_scenario fuzz_covers
  ./build-fuzz/fuzz/fuzz_batch_codec -runs=5000 -max_total_time=10 fuzz/corpus/batch
  ./build-fuzz/fuzz/fuzz_scenario -runs=5000 -max_total_time=10 fuzz/corpus/scenario
  ./build-fuzz/fuzz/fuzz_covers -runs=2000 -max_total_time=10 fuzz/corpus/covers

  echo "=== sweep smoke ==="
  # Time-boxed statistical smoke: a small sweep with the bit-determinism
  # self-check at two worker counts, then the comparator. Same parameters and
  # seeds on both sides, so any significant delta is a real nondeterminism or
  # statistics bug, not noise.
  timeout 120 ./build/tools/evps-sweep --scenario=all --replicas=8 --scale=0.5 \
      --workers=2 --selfcheck --quiet --out=build/sweep_smoke_a.json
  timeout 120 ./build/tools/evps-sweep --scenario=all --replicas=8 --scale=0.5 \
      --workers=4 --selfcheck --quiet --out=build/sweep_smoke_b.json
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/sweep_compare.py --selftest
    python3 scripts/sweep_compare.py build/sweep_smoke_a.json build/sweep_smoke_b.json
  fi

  echo "=== sweep vs BENCH_sweep.json ==="
  # The checked-in baseline's scenarios, replica count and root seed, so the
  # replicas are identical: a significant delta at the recorded 95% CIs, or a
  # changed first_fingerprint, means behaviour changed, not sampling noise.
  ./build/tools/evps-sweep --scenario=all --replicas=200 --workers=2 --selfcheck \
      --quiet --out=build/BENCH_sweep.regen.json
  python3 scripts/sweep_compare.py BENCH_sweep.json build/BENCH_sweep.regen.json

  echo "=== lint (clang-tidy) ==="
  cmake --build build --target lint -j "${JOBS}"

  echo "=== bench-smoke ==="
  # One pass over every benchmark binary with minimal repetitions: catches
  # crashes and assertion failures without paying for stable timings.
  for bench in build/bench/*; do
    [[ -x "${bench}" ]] || continue
    case "${bench##*/}" in
      micro_matcher)
        # Skip the population-heavy cases (100k point-insert fill, the
        # 100k/1M maintenance-sweep and bulk-rebuild fills) — the 10k
        # variants already cover every code path, including add_batch.
        "${bench}" --benchmark_min_time=0.01 --benchmark_repetitions=1 \
            '--benchmark_filter=-(BM_LargePopulationMatch|BM_MaintenanceSweep<.*>/(100000|1000000)|BM_BulkRebuild/100000)' \
            --benchmark_out=/dev/null >/dev/null ;;
      micro_engines)
        # One point per benchmark function: the 10k-resident population
        # builds dominate the full run (same filter and minimum time as the
        # ctest entry).
        "${bench}" --benchmark_min_time=0.001 --benchmark_repetitions=1 \
            '--benchmark_filter=^BM_(VesMatch|LeesMatch|CleesMatch|VesEvolutionRound)/(100|1000)(/iterations:[0-9]+)?$|ShardedMatch/10000/4(/iterations:[0-9]+)?$|MatchBatch/10000/4/8(/iterations:[0-9]+)?$' \
            --benchmark_out=/dev/null >/dev/null ;;
      micro_*)
        # google-benchmark micros. Plain double (seconds): the "0.01s" suffix
        # form needs benchmark >= 1.8. Explicit --benchmark_out so the smoke
        # pass never clobbers the checked-in BENCH_*.json baselines (the
        # micros default their output to those files).
        "${bench}" --benchmark_min_time=0.01 --benchmark_repetitions=1 \
            --benchmark_out=/dev/null >/dev/null ;;
      routing_covering|overlay_batch)
        # argv[1] overrides the output path; keep BENCH_routing.json intact.
        "${bench}" /dev/null >/dev/null ;;
      *)
        # fig/table drivers ignore argv and print to stdout.
        "${bench}" >/dev/null ;;
    esac
    echo "ok: ${bench}"
  done

  echo "=== perfbench self-test ==="
  # The benchmark compiles against the library's counters and engine API, so
  # a library change can break it; this builds it and checks its output.
  python3 perfbench/tests/selftest.py

  echo "=== perfbench counts record ==="
  scripts/perfbench_counts.sh
fi

echo "All checks passed."
