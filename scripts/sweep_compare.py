#!/usr/bin/env python3
"""Compare two evps-sweep result files at their recorded confidence intervals.

Reads the "sweep" section of two BENCH JSON files (metrics/report.hpp
sectioned shape) and, for every scenario/metric pair present in both with a
defined 95% CI, flags the delta in means as significant when

    |mean_a - mean_b| > sqrt(ci_a^2 + ci_b^2)

i.e. when the intervals' combined half-widths cannot explain the difference
(a conservative two-sample test built only from what the sweeps recorded —
no raw replica data needed). Metrics whose CI is undefined in either file
(fewer than two finite replica values) are reported but never flagged.

When both files ran a scenario with the same replicas, root seed and
config (ignoring the worker count, which never changes an output bit), the
runs must be bit-identical: a differing first_fingerprint (replica 0's
delivery fingerprint) is a significant delta too, however narrow the
change to the means.

Exit codes: 0 no significant deltas, 1 at least one significant delta,
2 usage/IO error.  --selftest fabricates an identical and a shifted pair
internally and asserts both directions, so CI can verify the comparator
itself without golden files.
"""

import json
import math
import sys

METRICS = [
    "latency_mean_s",
    "latency_p99_s",
    "accuracy",
    "deliveries",
    "overlay_msgs",
    "msgs_per_delivery",
    "subscription_msgs",
]


def load_sweep(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"sweep_compare: cannot read {path}: {e}")
    sweep = doc.get("sweep")
    if not isinstance(sweep, dict) or "scenarios" not in sweep:
        raise SystemExit(f"sweep_compare: {path} has no \"sweep\" section")
    return sweep


def config_key(sweep):
    """The sweep's config without the worker count."""
    return {k: v for k, v in sweep.get("config", {}).items() if k != "workers"}


def compare(sweep_a, sweep_b, name_a="a", name_b="b", out=sys.stdout):
    """Return the number of significant deltas; print one line per metric."""
    significant = 0
    scen_a, scen_b = sweep_a["scenarios"], sweep_b["scenarios"]
    shared = [s for s in scen_a if s in scen_b]
    if not shared:
        raise SystemExit("sweep_compare: no scenarios in common")
    same_config = config_key(sweep_a) == config_key(sweep_b)
    for scenario in shared:
        sa, sb = scen_a[scenario], scen_b[scenario]
        fa, fb = sa.get("first_fingerprint"), sb.get("first_fingerprint")
        same_run = same_config and all(
            sa.get(k) == sb.get(k) for k in ("replicas", "root_seed")
        )
        if same_run and fa is not None and fb is not None:
            verdict = "ok" if fa == fb else "SIGNIFICANT"
            significant += fa != fb
            print(
                f"{scenario}/first_fingerprint: {name_a}={fa} {name_b}={fb} -> {verdict}",
                file=out,
            )
        for metric in METRICS:
            ma, mb = scen_a[scenario].get(metric), scen_b[scenario].get(metric)
            if ma is None or mb is None:
                continue
            mean_a, mean_b = ma["mean"], mb["mean"]
            ci_a, ci_b = ma.get("ci95"), mb.get("ci95")
            delta = abs(mean_a - mean_b)
            if ci_a is None or ci_b is None:
                verdict = "no-ci"
            else:
                bound = math.sqrt(ci_a * ci_a + ci_b * ci_b)
                if delta > bound:
                    verdict = "SIGNIFICANT"
                    significant += 1
                else:
                    verdict = "ok"
            print(
                f"{scenario}/{metric}: {name_a}={mean_a:.6g} {name_b}={mean_b:.6g} "
                f"delta={delta:.6g} -> {verdict}",
                file=out,
            )
    return significant


def selftest():
    base = {
        "config": {"engine": "lees", "workers": 2},
        "scenarios": {
            "game": {
                "replicas": 6,
                "root_seed": 1,
                "first_fingerprint": "505aa4be063df416",
                **{m: {"mean": 100.0 + i, "ci95": 1.0} for i, m in enumerate(METRICS)},
            }
        },
    }
    shifted = json.loads(json.dumps(base))
    shifted["scenarios"]["game"]["deliveries"]["mean"] += 10.0  # >> combined CI
    noise = json.loads(json.dumps(base))
    noise["scenarios"]["game"]["deliveries"]["mean"] += 0.5  # within combined CI
    no_ci = json.loads(json.dumps(shifted))
    no_ci["scenarios"]["game"]["deliveries"]["ci95"] = None
    other_workers = json.loads(json.dumps(base))
    other_workers["config"]["workers"] = 4
    refingerprinted = json.loads(json.dumps(other_workers))
    refingerprinted["scenarios"]["game"]["first_fingerprint"] = "0123456789abcdef"
    other_config = json.loads(json.dumps(refingerprinted))
    other_config["config"]["engine"] = "ves"
    other_seed = json.loads(json.dumps(refingerprinted))
    other_seed["scenarios"]["game"]["root_seed"] = 2

    import io

    sink = io.StringIO()
    assert compare(base, base, out=sink) == 0, "identical sweeps flagged"
    assert compare(base, noise, out=sink) == 0, "in-CI noise flagged"
    assert compare(base, shifted, out=sink) == 1, "injected shift missed"
    assert compare(base, no_ci, out=sink) == 0, "undefined CI flagged"
    assert compare(base, other_workers, out=sink) == 0, "worker count flagged"
    assert compare(base, refingerprinted, out=sink) == 1, "fingerprint change missed"
    assert compare(base, other_config, out=sink) == 0, "different config compared"
    assert compare(base, other_seed, out=sink) == 0, "different seed compared"
    print("sweep_compare selftest: ok")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        print(f"\nusage: {argv[0]} <a.json> <b.json> | --selftest", file=sys.stderr)
        return 2
    sweep_a, sweep_b = load_sweep(argv[1]), load_sweep(argv[2])
    significant = compare(sweep_a, sweep_b, name_a=argv[1], name_b=argv[2])
    if significant:
        print(f"sweep_compare: {significant} significant delta(s)")
        return 1
    print("sweep_compare: no significant deltas")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
