#!/usr/bin/env python3
"""Bench regression gate for BENCH_overhead.json.

Compares a freshly produced BENCH_overhead.json against the committed
baseline and fails on a >20% regression in normalized ns_per_task for the
sharded MultiPrio sweep points.

Normalization: raw ns_per_task is machine-dependent (CI runners differ in
clock speed and core count), so each file is normalized by its OWN 1-worker
sharded ns_per_task before comparison. The normalized value at width W is
the contention multiplier — "how much more scheduling CPU does a task cost
at W workers than at 1" — which is the quantity the sharded lock protocol
protects and the one that is comparable across machines.

Only `multiprio` (sharded) sweep points are gated. The `multiprio-coarse`
baseline points (MultiPrio behind the single-lock SerializedScheduler
adapter) are printed for context but not gated: the adapter's notify_all
herd makes its numbers wildly variant run-to-run (that variance is the
pathology the sharded protocol removes), and the coarse path is the
comparison anchor, not the protected quantity.

Usage: tools/bench_gate.py <candidate.json> <baseline.json>
Exit status 0 = pass, 1 = regression or malformed input.
"""

import json
import sys

TOLERANCE = 1.20  # fail when candidate normalized cost exceeds baseline by >20%


def sweep_points(path):
    """Return {(scheduler, workers): ns_per_task} for overhead_sweep records."""
    with open(path) as f:
        records = json.load(f)
    points = {}
    for rec in records:
        if rec.get("bench") != "overhead_sweep":
            continue
        key = (rec["scheduler"], rec["params"]["workers"])
        points[key] = rec["ns_per_task"]
    return points


def normalized(points):
    """Divide every point by the file's own 1-worker sharded anchor."""
    anchor = points.get(("multiprio", 1))
    if not anchor or anchor <= 0:
        raise SystemExit("bench_gate: no 1-worker multiprio anchor point")
    return {key: ns / anchor for key, ns in points.items()}


def main(argv):
    if len(argv) != 3:
        print("usage: tools/bench_gate.py <candidate.json> <baseline.json>", file=sys.stderr)
        return 1
    candidate = sweep_points(argv[1])
    baseline = sweep_points(argv[2])
    cand_norm = normalized(candidate)
    base_norm = normalized(baseline)

    failed = False
    for key in sorted(base_norm, key=lambda k: (k[0], k[1])):
        sched, workers = key
        if key not in cand_norm:
            print(f"bench_gate: FAIL {sched} @{workers}w missing from candidate")
            failed = True
            continue
        c, b = cand_norm[key], base_norm[key]
        gated = sched == "multiprio"
        verdict = "ok"
        if gated and c > b * TOLERANCE:
            verdict = f"FAIL (>{(TOLERANCE - 1) * 100:.0f}% regression)"
            failed = True
        tag = "" if gated else "  [context only]"
        print(
            f"bench_gate: {sched:17s} @{workers:2d}w "
            f"normalized {c:5.2f} vs baseline {b:5.2f}  {verdict}{tag}"
        )
    if not failed:
        print("bench_gate: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
