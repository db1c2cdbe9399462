#!/usr/bin/env python3
"""Build and run the overlay benchmark.

    python3 perfbench/run.py --workload mmog_lees --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first call configures an optimised
(Release) out-of-source build of the library and the benchmark under
.bench_build/perfbench; later calls only rebuild what changed. The build log
goes to stderr, so the last stdout line is the benchmark's JSON result.
With --trace 1 the spans of the last traced replay are written to
.bench_build/traces/<workload>-seed<seed>.jsonl.

Exits non-zero when the library sources are missing, the build fails, the
benchmark's own output checks fail, or the run does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "evps_perfbench")
WORKLOADS = ("mmog_lees", "hft_ves", "zones_clees")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "evps_perfbench", "-j", jobs])
    for cmd in steps:
        # The build log goes to stderr so stdout carries only benchmark output.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BINARY


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--reps", type=int, help="fixed replay count (self-tests)")
    parser.add_argument("--variant", choices=("measured", "unbatched", "reference"),
                        default="measured", help="deployment knobs (self-tests)")
    args = parser.parse_args()

    cmd = [build(), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--variant", args.variant]
    if args.reps:
        cmd += ["--reps", str(args.reps)]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]

    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", code=1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result line", code=1)
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        fail("benchmark result is malformed or not correct", code=1)


if __name__ == "__main__":
    main()
