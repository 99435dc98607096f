#!/usr/bin/env python3
"""Steadiness runner: runs workloads N times with distinct seeds and prints
each end-to-end metric's median, quartiles and spread.

The spread is (Q3 - Q1) / median over the N runs, with quartiles as
statistics.quantiles(values, n=4) gives them. Every metric whose spread
exceeds its bound in BENCHMARK.json is flagged, and so is one above a third
of its bound. Runs alternate the workload order (forward, then reversed)
so slow drift of the host does not land on one workload.

Usage (from the root of a checkout):
  python3 diagbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                              [--workloads a,b] [--trace]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, args.first_seed + i, args.seconds, args.trace)
            results[w].append(r)
            print("run %d %s seed %d: correct=%s attempted=%d failed=%d" %
                  (i, w, args.first_seed + i, r["correct"], r["attempted"], r["failed"]),
                  file=sys.stderr)

    flagged = 0
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: %d runs, all correct: %s, failed shares: %s" %
              (w, len(runs), all(r["correct"] for r in runs), shares))
        print("  %-34s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "  OVER BOUND"
                    flagged += 1
                elif spread > bound / 3:
                    flag = "  over a third of bound"
            print("  %-34s %12.6g %12.6g %12.6g %8.4f %6s%s" %
                  (name, med, q1, q3, spread, "" if bound is None else bound, flag))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
