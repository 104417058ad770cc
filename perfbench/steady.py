#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and summarises each metric.

    python3 perfbench/steady.py --workload wire-batched [--runs 10]
                                [--sets 1] [--seconds 10] [--trace 0]

Every set runs seeds 1..N.  With --sets 2 the two sets are interleaved in
time (seed 1 of set A, seed 1 of set B, seed 2 of set A, ...), so both see
the same background load.  For every metric and set it prints the median,
the quartiles (statistics.quantiles(values, n=4)), min, max and the spread
(Q3 - Q1) / median.  For end-to-end metrics it judges each set's spread
against a third of BENCHMARK.json's bound and, with two sets, how far set
B's median is worse than set A's, as a share of set A's, against the whole
bound.  setup_s is judged on its median only: its bound guards against work
moving into set-up, and a few cold set-ups per run are too few samples for
its spread to be held to a third of the bound.  It exits 1 if a run
failed, a run reported other metrics than BENCHMARK.json lists, or a judged
figure is outside its limit.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    """One benchmark run; returns its metrics, or None when it failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    sets = "AB"[:args.sets]

    values = {s: {} for s in sets}
    ok = True
    for seed in range(1, args.runs + 1):
        for s in sets:
            metrics = run(args.workload, seed, seconds, args.trace)
            if metrics is None:
                ok = False
                continue
            if set(metrics) != set(declared):
                print(f"seed {seed}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(declared))}")
                ok = False
            for name, value in metrics.items():
                values[s].setdefault(name, []).append(value)
            print(f"set {s} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in sorted(metrics.items())
                if args.trace == 0 or k == "trace.overhead_pct"), flush=True)

    print(f"\n{args.workload}: {args.sets} set(s) of {args.runs} runs of {seconds} s, "
          f"seeds 1..{args.runs}")
    print(f"{'metric':32} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
          f"{'max':>12} {'spread':>8} {'bound':>6}")
    medians = {}
    for name in sorted(values[sets[0]]):
        bound = declared.get(name, {}).get("bound")
        for s in sets:
            v = values[s].get(name, [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            medians[name, s] = med
            spread = (q3 - q1) / med if med else float("nan")
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "FAIL")
                ok &= verdict != "FAIL"
            print(f"{name:32} {s:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(v):12.6g} "
                  f"{max(v):12.6g} {spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{verdict}")

    if args.sets == 2:
        print(f"\n{'metric':32} {'B worse than A':>15} {'bound':>6}")
        for name, m in sorted(declared.items()):
            if "bound" not in m or (name, "A") not in medians or (name, "B") not in medians:
                continue
            a, b = medians[name, "A"], medians[name, "B"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "FAIL"
            ok &= verdict == "ok"
            print(f"{name:32} {worse:15.4f} {m['bound']:6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
