#!/usr/bin/env python3
"""Steadiness check: run one workload k times and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py --workload NAME [--runs K] [--seed-base N]
                                [--seconds S]

Runs perfbench/run.py --trace 0 K times (default 10) with seeds N, N+1, ...
(default N = 1) and --seconds S (default: run_seconds from BENCHMARK.json),
so it sees the end-to-end metrics, the ones BENCHMARK.json bounds. For each
metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median. An end-to-end metric whose spread exceeds its bound in
BENCHMARK.json is flagged OVER; one above a third of its bound is flagged
WIDE. It also prints the share of failed operations of every run. Exits 1
when a run fails or reports an incorrect output, or when any end-to-end
metric is OVER. Every metric's values are listed by seed at the end.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    units = {}
    shares = []
    ok = True
    for i in range(args.runs):
        seed = args.seed_base + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d, no result" % (seed, proc.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        shares.append(share)
        ok = ok and result["correct"]
        print("seed %d: correct=%s attempted=%d failed=%d (share %.6f)" %
              (seed, result["correct"], result["attempted"], result["failed"],
               share), flush=True)
        for name, m in result["metrics"].items():
            if m["value"] is None:  # undefined: already makes correct false
                continue
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("\n%-34s %-8s %12s %12s %12s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    over = False
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "OVER"
                over = True
            elif spread > bound / 3:
                flag = "WIDE"
        print("%-34s %-8s %12.5g %12.5g %12.5g %8.4f %6s %s" %
              (name, units[name], med, q1, q3, spread,
               "" if bound is None else "%.2f" % bound, flag))
    print("\nvalues by seed:")
    for name, vals in values.items():
        print("%-34s %s" % (name, " ".join("%.5g" % v for v in vals)))
    if shares:
        print("\nfailed share per run: %s" %
              ("identical (%.6f)" % shares[0] if len(set(shares)) == 1
               else "DIFFERS " + str(shares)))
    sys.exit(0 if ok and not over else 1)


if __name__ == "__main__":
    main()
