#!/usr/bin/env python3
"""Steadiness and tracing overhead of the benchmark, from BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--first-seed N] [--no-trace]

For each workload, makes `--sets` sets of `--runs` runs of the same build,
each run with its own seed and BENCHMARK.json's `run_seconds`, and reports
for every end-to-end metric:

* spread: the distance between the first and third quartile of a set's
  values (statistics.quantiles(values, n=4)) as a share of its median,
  against the metric's bound and a third of it;
* drift: how much worse the second set's median is than the first's,
  against the bound;
* the share of failed operations in each set, which must be equal.

Unless --no-trace, it then reports the tracing overhead: the end-to-end
times of a traced run against those of an untraced run of the same seed
made just before it, median of three such pairs. Run from the root of a
checkout; exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OVERHEAD_PAIRS = 3


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: outputs are wrong")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    seed = args.first_seed
    for wl in workloads:
        sets = []
        for _ in range(args.sets):
            results = []
            for _ in range(args.runs):
                results.append(run(bench, wl, seed, seconds, 0))
                seed += 1
            sets.append(results)
        print(f"== {wl}: {args.sets} x {args.runs} runs of {seconds} s")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print(f"   failed share per set: {shares}")
        ok &= len(set(r["failed"] / r["attempted"] for s in sets for r in s)) == 1
        medians = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s]
                sp = spread(vals)
                med = statistics.median(vals)
                cols.append(f"median {med:.6g} spread {sp:.3f}")
                if sp > bound:
                    ok = False
                medians.setdefault(name, []).append(med)
            mark = ""
            if any(float(c.split()[-1]) > bound / 3 for c in cols):
                mark = "  (spread above a third of the bound)"
            if len(sets) > 1:
                d = worse(medians[name][0], medians[name][1], m["better"])
                cols.append(f"drift {d:+.3f}")
                if d > bound:
                    ok = False
                    mark += "  (drift above the bound)"
            print(f"   {name:20s} bound {bound:.2f}: " + " | ".join(cols) + mark)
        if not args.no_trace:
            # Tracing overhead: untraced and traced runs of one seed, in
            # adjacent pairs, so host drift cancels.
            ratios = {m["name"]: [] for m in metrics if m["name"].endswith("_s")}
            for _ in range(OVERHEAD_PAIRS):
                untraced = run(bench, wl, args.first_seed, seconds, 0)
                traced = run(bench, wl, args.first_seed, seconds, 1)
                with open(os.path.join(ROOT, ".bench_out", f"{wl}-trace1.json")) as f:
                    report = json.load(f)
                for name, r in ratios.items():
                    v = report["end_to_end"][name]["value"]
                    r.append(v / untraced["metrics"][name]["value"] - 1)
            print(f"   traced run: {len(traced['metrics'])} per-layer metrics; "
                  f"overhead, median of {OVERHEAD_PAIRS} adjacent pairs:")
            for name, r in ratios.items():
                print(f"     {name:20s} {statistics.median(r):+.1%}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
