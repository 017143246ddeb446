#!/usr/bin/env python3
"""Build and run the mfgpu repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload oneshot_elastic3d --seed 1 \
        --seconds 30 --trace 0

Configures and builds perfbench/ (the mfgpu library from ../src plus the
benchmark binary) with CMake in $CARGO_TARGET_DIR (default .bench_build)
under the repository root, then runs the binary. Build output goes to
standard error; the binary's last line of standard output is the result
JSON. The exit code is the binary's (nonzero on a wrong answer), or 1 when
the build fails. See perfbench/METRICS.md for workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot_elastic3d", "refactor2d_multirhs", "serve_mixed_patterns")


def run_timeout_s(seconds):
    """Wall limit of one run: its timed part, a traced run's warm-up pair,
    pool runs, replays and service loop on top, plus set-up."""
    return 3 * seconds + 80


def build(build_dir):
    """Configure (once) and build the binary; returns its path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    make = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(make, stdout=log, stderr=log).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    timeout = run_timeout_s(args.seconds)
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %g s" % timeout, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
