#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the repository's served program and the two benchmark programs from
source (Release, into .bench_build/ at the checkout root, or
$CARGO_TARGET_DIR when set), then runs one of them:

  python3 perfbench/run.py --workload hit_heavy --seed 1 --seconds 20 --trace 0

--trace 0 runs perfbench_load (end-to-end over TCP, the end-to-end metrics);
--trace 1 runs perfbench_trace (in-process per-layer replay, the per-layer
metrics). The program's last stdout line is the JSON result. Build output
goes to stderr. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hit_heavy", "cold_mix", "session_churn")


def build(build_dir):
    """Configures (once) and builds; returns False on any failure."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    program = "perfbench_trace" if args.trace else "perfbench_load"
    command = [os.path.join(build_dir, program),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--server", os.path.join(build_dir, "msrs", "msrs_engine_cli"),
               "--workdir", workdir]
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
