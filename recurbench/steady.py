#!/usr/bin/env python3
"""Steadiness tool for the recur benchmark.

Runs one workload N times, on seeds 1..N, and prints, per end-to-end
metric, the median, the quartiles and the spread (interquartile distance
over the median) against the metric's bound from BENCHMARK.json. With
--sets 2 it runs a second set on seeds 1001..1000+N and compares the
medians of the two sets, as a regression check between two commits would. With
--trace it also runs the traced variant and prints the per-layer medians
and the tracing overhead.

Run from the repository root:

    python3 recurbench/steady.py --workload materialize --runs 10
    python3 recurbench/steady.py --workload resident --runs 5 --sets 2
    python3 recurbench/steady.py --workload paper_queries --runs 3 --trace

A spread below a third of the bound is steady; above the bound, the metric
cannot tell a regression of that size from noise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {proc.returncode}): seed {seed}\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"incorrect result on seed {seed}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(args, command, first_seed, trace=False):
    results = []
    for i in range(args.runs):
        seed = first_seed + i
        results.append(run_once(command, args.workload, seed, args.seconds, trace))
        print(f"  seed {seed} done", file=sys.stderr)
    return results


def summarize(results, metrics):
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, q2, q3 = quartiles(values)
        median = statistics.median(values)
        out[m["name"]] = (median, q1, q3, (q3 - q1) / median if median else float("inf"))
    return out


def failed_share(results):
    return sorted({r["failed"] / r["attempted"] for r in results})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    e2e = bench["end_to_end"]

    first = run_set(args, command, 1)
    s1 = summarize(first, e2e)
    print(f"workload {args.workload}: {args.runs} runs x {args.seconds} s, "
          f"seeds 1..{args.runs}")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for m in e2e:
        median, q1, q3, spread = s1[m["name"]]
        verdict = ("steady" if spread <= m["bound"] / 3 else
                   "within bound" if spread <= m["bound"] else "TOO NOISY")
        if m["name"] == "setup_s":
            verdict += " (spread not gated)"
        print(f"{m['name']:<20} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {m['bound']:>6.2f}  {verdict}")
    print(f"failed share: {failed_share(first)}")

    if args.sets == 2:
        second = run_set(args, command, 1001)
        s2 = summarize(second, e2e)
        print(f"\nsecond set, seeds 1001..{1000 + args.runs}")
        print(f"{'metric':<20} {'median 1':>12} {'median 2':>12} {'drift':>8} "
              f"{'bound':>6}  verdict")
        for m in e2e:
            a, b = s1[m["name"]][0], s2[m["name"]][0]
            drift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if drift <= m["bound"] else "WORSE BEYOND BOUND"
            print(f"{m['name']:<20} {a:>12.6g} {b:>12.6g} {drift:>8.3f} "
                  f"{m['bound']:>6.2f}  {verdict}")
        same = failed_share(first) == failed_share(second)
        print(f"failed share equal across sets: {same}")

    if args.trace:
        traced = run_set(args, command, 1, trace=True)
        layer = summarize(traced, bench["per_layer"])
        print(f"\nper-layer medians over {args.runs} traced runs")
        for m in bench["per_layer"]:
            median, q1, q3, spread = layer[m["name"]]
            print(f"{m['name']:<34} {median:>14.6g} {m['unit']:<6} spread {spread:.3f}")


if __name__ == "__main__":
    main()
