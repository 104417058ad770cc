#!/usr/bin/env python3
"""Runs one benchmark workload, building the benchmark from source first.

    python3 perfbench/run.py --workload <bulk-registry|wire-batched>
                             --seed N --seconds S --trace <0|1> [--corrupt 1]

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the obx libraries plus the benchmark binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
check the build is current.  Build output goes to stderr, so the last line of
stdout is the binary's JSON result.  A traced run also writes its spans to
<build>/traces/<workload>-seed<N>.json.  The exit code is the binary's: 0 when
every output and ledger check passed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk-registry", "wire-batched"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(directory):
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", directory, "--target", "obx_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(directory, "obx_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", type=int, choices=[0, 1], default=0,
                        help="flip one output bit before it is checked (self-test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the obx sources (src/) are missing next to the benchmark",
              file=sys.stderr)
        return 2
    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--corrupt", str(args.corrupt)]
    if args.trace:
        traces = os.path.join(directory, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
