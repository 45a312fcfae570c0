#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package in release mode, generates the workload's
seeded dataset and expected answers in one child process, then measures in
a second child process, whose last line on stdout is the JSON result.
Build output and per-run files go under $CARGO_TARGET_DIR (default
`.bench_build`); the run's dataset is deleted when it ends. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("scan_select", "join_aggregate", "service_small")
BUILD_LIMIT_S = 850
# Everything after the build must end within this many seconds.
RUN_LIMIT_S = 170
# Engine settings that would change what is measured.
ENGINE_ENV = ("VXQ_MEM_BUDGET", "VXQ_STAGE1", "VXQ_PARTITIONS")


def main():
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in ENGINE_ENV}
    # os.path.join keeps an absolute CARGO_TARGET_DIR as it is.
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--work", work]
    spans = os.path.join(target, f"perfbench-spans-{args.workload}.jsonl")
    try:
        prep = subprocess.run([exe, "prepare", *common], env=env,
                              stdout=sys.stderr, timeout=RUN_LIMIT_S)
        if prep.returncode != 0:
            return 1
        sys.stdout.flush()
        meas = subprocess.run(
            [exe, "measure", *common, "--trace", str(args.trace),
             "--spans", spans],
            env=env, timeout=max(1.0, deadline - time.monotonic()))
        return meas.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
