#!/usr/bin/env python3
"""Self-test of the output checks: a corrupted output word must fail the run.

    python3 perfbench/selftest.py [--seconds 2]

Runs every workload with --corrupt 1, which flips one bit of the first
output the run checks.  Each run must exit nonzero and report
"correct": false with at least one failed operation.  Exits 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk-registry", "wire-batched"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", str(args.seconds), "--trace", "0", "--corrupt", "1"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode != 0 and result.get("correct") is False
                  and result.get("failed", 0) >= 1)
        ok &= caught
        print(f"{workload}: exit {proc.returncode}, correct={result.get('correct')}, "
              f"failed={result.get('failed')} -> {'caught' if caught else 'NOT CAUGHT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
