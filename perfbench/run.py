#!/usr/bin/env python3
"""Builds and runs the partita benchmark (see perfbench/README.md).

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
Every run also leaves a detailed report (latency neighbourhoods, per-kind
rows, span table) in .perfbench_out/<workload>-seed<n>-trace<t>.json.

Summarise several runs of one workload (median, quartiles, spread, gap
flags, count determinism):

    python3 perfbench/run.py --summarize .perfbench_out/paper-sweep-seed*-trace0.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-sweep", "corpus-exact", "service-open-loop")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
# A run must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
# A percentile whose neighbouring samples span more than this share of its
# value sits in a gap between clusters of ops.
GAP_SHARE = 0.25


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    """The caller's environment minus every PARTITA_* setting, so solves
    run with the library defaults a user gets."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PARTITA_")}


def build(env):
    for needed in ("Cargo.toml", "crates", "BENCH_partita.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout")
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    built = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if built.returncode != 0:
        fail("cargo build failed", 1)
    return os.path.join(target, "release", "partita-perfbench")


def run(args):
    env = clean_env()
    binary = build(env)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", ROOT,
        "--out", os.path.join(ROOT, ".perfbench_out"),
    ]
    try:
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}", done.returncode or 1)
    print(lines[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    rel = (lambda x: x / med) if med else (lambda x: 0.0)
    return med, q1, q3, rel(max(values) - min(values)), rel(q3 - q1)


def summarize(paths):
    reports = []
    for p in paths:
        with open(p) as f:
            reports.append(json.load(f))
    if not reports:
        fail("nothing to summarise")
    if len({r["workload"] for r in reports}) != 1:
        fail("--summarize takes reports of one workload")
    print(f"{reports[0]['workload']}: {len(reports)} runs, seeds "
          f"{sorted({r['seed'] for r in reports})}")
    metrics = reports[0]["result"]["metrics"]
    print(f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'(max-min)/med':>14} {'iqr/med':>8}")
    counts_differ = []
    for name, m in metrics.items():
        values = [r["result"]["metrics"][name]["value"] for r in reports]
        med, q1, q3, full, iqr = spread(values)
        print(f"{name:32} {m['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{full:14.4f} {iqr:8.4f}")
        if m["unit"] == "count" and len(set(values)) > 1:
            counts_differ.append(name)
    bad = [r for r in reports if not r["result"]["correct"]]
    print(f"incorrect runs: {len(bad)}")
    if reports[0]["trace"]:
        print("counts identical across runs: "
              + ("yes" if not counts_differ else "NO: " + ", ".join(counts_differ)))
    for r in reports:
        for nb in r["latency"]["neighbours"]:
            span = nb["high"] - nb["low"]
            if nb["value"] and span > GAP_SHARE * nb["value"]:
                print(f"GAP seed {r['seed']}: p{nb['level']} = {nb['value']:.4g} ms, "
                      f"neighbours {nb['low']:.4g}..{nb['high']:.4g} ms")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summarize", nargs="+", metavar="REPORT")
    args = ap.parse_args()
    if args.summarize:
        summarize(args.summarize)
    elif args.workload:
        run(args)
    else:
        fail("give --workload or --summarize")


if __name__ == "__main__":
    main()
