#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark on two checkouts.

Runs `mpbench/run.py` of a parent checkout and of a change checkout one
after the other for seeds 1..N of one workload, alternating which side goes
first in each pair, so slow drifts of the host load fall on both sides.
For every end-to-end metric named in the change's BENCHMARK.json it prints
the parent and change medians with their quartiles, the per-pair ratios
(change / parent), their median and the number of pairs in which the change
read better. It also checks that `sim_makespan_s` is equal within each pair
(a simulator change that claims byte-identity must keep it so).

    tools/ab_pairs.py --parent ../parent --change . --workload sim-potrf \\
        --pairs 10 --seconds 30

Each checkout builds its own benchmark on its first run (run.py's
.bench_build/). Exit status: 0 when every run succeeded and the makespans
matched in every pair, 1 otherwise. --json writes every run's metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run; returns its parsed last line, or None on failure."""
    cmd = [sys.executable, os.path.join(root, "mpbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, check=False)
    if r.returncode != 0:
        return None
    try:
        return json.loads(r.stdout.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        return None


def quartiles(xs):
    """(q1, median, q3), inclusive method; a single value repeats."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v):
    a = abs(v)
    if a >= 1e6:
        return f"{v / 1e6:.4g}M"
    if a >= 1e4:
        return f"{v / 1e3:.4g}k"
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout root")
    ap.add_argument("--change", required=True, help="change checkout root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10, help="seeds 1..N")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()

    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    runs = []  # per pair: {"seed", "parent", "change"}
    ok = True
    for seed in range(1, args.pairs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        pair = {"seed": seed}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed,
                                  args.seconds, args.trace)
        failed = [s for s in order if pair[s] is None or not pair[s]["correct"]
                  or pair[s]["failed"] != 0]
        if failed:
            ok = False
            print(f"seed {seed}: {', '.join(failed)} run failed or was incorrect")
        runs.append(pair)
        print(f"seed {seed} done ({order[0]} first)", file=sys.stderr)

    good = [p for p in runs if p["parent"] and p["change"]]

    def value(result, name):
        m = result["metrics"].get(name)
        return None if m is None else m["value"]

    print(f"{args.workload}: {len(good)} pairs, seeds 1-{args.pairs}, "
          f"--seconds {args.seconds:g} --trace {args.trace}")
    print(f"{'metric':<28} {'parent median [q1-q3]':<30} "
          f"{'change median [q1-q3]':<30} {'ratio':>7} {'better':>7}")
    for m in metrics:
        name = m["name"]
        pv, cv, ratios, wins = [], [], [], 0
        for p in good:
            a, b = value(p["parent"], name), value(p["change"], name)
            if a is None or b is None:
                continue
            pv.append(a)
            cv.append(b)
            if a != 0:
                ratios.append(b / a)
            wins += (b > a) if m["better"] == "higher" else (b < a)
        if not pv:
            continue
        pq, cq = quartiles(pv), quartiles(cv)
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        print(f"{name:<28} {fmt(pq[1]) + ' [' + fmt(pq[0]) + '-' + fmt(pq[2]) + ']':<30} "
              f"{fmt(cq[1]) + ' [' + fmt(cq[0]) + '-' + fmt(cq[2]) + ']':<30} "
              f"{ratio:>7} {f'{wins}/{len(pv)}':>7}")
        if ratios:
            print(f"  per-pair ratios: {' '.join(f'{r:.3f}' for r in ratios)}")

    mismatched = [p["seed"] for p in good
                  if value(p["parent"], "sim_makespan_s")
                  != value(p["change"], "sim_makespan_s")]
    if mismatched:
        ok = False
        print(f"sim_makespan_s DIFFERS in the pairs of seeds {mismatched}")
    else:
        makespans = sorted({repr(value(p["change"], "sim_makespan_s")) for p in good})
        print(f"sim_makespan_s equal in all {len(good)} pairs: {', '.join(makespans)}")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok and len(good) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
