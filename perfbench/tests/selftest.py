#!/usr/bin/env python3
"""Self-test of the benchmark: determinism, trace neutrality, and the
delivery-preserving knobs of zones_clees.

    python3 perfbench/tests/selftest.py [workload ...]

Run from the root of a checkout; builds through perfbench/run.py and replays
each workload once per invocation (--reps 1). Checks, per workload:

  * the same seed run twice gives identical counts and an identical
    delivery-log fingerprint, and another seed gives another fingerprint;
  * the traced run's counts equal the untraced run's (tracing must not
    change behaviour);
  * zones_clees only: the delivery log equals the log of the same inputs
    replayed with link batch 1, and the log replayed with covering off and
    link batch 1 (both knobs are documented as delivery-preserving in
    DESIGN.md §10 and §14).

The covering comparison is a known failure of the library (README.md,
"Known failure"): relational covering drops deliveries under zone churn. It
is reported as KNOWN and does not fail the run while it still fails; once
the library is fixed it reports FIXED and fails the run, so the marker is
removed together with the fix.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")
WORKLOADS = ("mmog_lees", "hft_ves", "zones_clees")
SEED, OTHER_SEED = 11, 12


def run(workload, seed, trace=0, variant="measured"):
    """Counts printed by one benchmark invocation."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--reps", "1", "--variant", variant]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-3000:]}")
    for line in proc.stdout.splitlines():
        if line.startswith("counts "):
            return json.loads(line[len("counts "):])
    raise RuntimeError(f"{' '.join(cmd)} printed no counts line")


def same_log(a, b):
    return a["fingerprint"] == b["fingerprint"] and a["client_deliveries"] == b["client_deliveries"]


def differing(a, b):
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main():
    workloads = sys.argv[1:] or WORKLOADS
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    def known_failure(ok, what):
        print(("FIXED " if ok else "KNOWN ") + what, flush=True)
        if ok:
            failures.append(what + " now passes: drop the known-failure marker")

    for w in workloads:
        first, again = run(w, SEED), run(w, SEED)
        check(first == again, f"{w}: seed {SEED} twice gives identical counts "
                              f"(differ: {differing(first, again)})")
        other = run(w, OTHER_SEED)
        check(first["fingerprint"] != other["fingerprint"],
              f"{w}: seed {OTHER_SEED} gives another delivery fingerprint")
        traced = run(w, SEED, trace=1)
        check(traced == first, f"{w}: traced counts equal untraced counts "
                               f"(differ: {differing(first, traced)})")
        if w == "zones_clees":
            unbatched = run(w, SEED, variant="unbatched")
            check(same_log(unbatched, first), f"{w}: delivery log equals link batch 1")
            plain = run(w, SEED, variant="reference")
            known_failure(same_log(plain, first),
                          f"{w}: delivery log equals covering off + link batch 1")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
