#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 mpbench/run.py --workload sim-potrf --seed 1 --seconds 20 --trace 0

The first run configures and builds `mpbench` (CMake, the repository's own
sources under src/) into .bench_build/; later runs only re-check the build.
The benchmark's own output is passed through; its last line is one JSON
object with the keys correct, attempted, failed and metrics. The metric names
are checked against BENCHMARK.json before the line is printed. Any build or
run failure exits non-zero without printing a result.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"mpbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "mpbench")


def build(out):
    """Configures once, then brings the binary up to date; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to the benchmark (src/CMakeLists.txt)")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries stay inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "mpbench", "-j", "4"])
        for cmd in steps:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, check=False)
            if r.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "mpbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"benchmark exited with code {r.returncode}")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(r.stdout)
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    names = set(result["metrics"])
    want = expected_metrics(args.trace == 1)
    if names != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - names)}, "
             f"extra {sorted(names - want)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
