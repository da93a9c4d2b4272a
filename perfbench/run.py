#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload svc-udp|svc-churn|sim-mpil \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench` (a standalone cargo
package, offline) into $CARGO_TARGET_DIR (default perfbench/target),
then runs it once. The last line of standard output is the result
object. Exits non-zero, without a result, if the build or the run
fails, and with the program's exit code 1 if an output check fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "perfbench/target"))


def build():
    env = dict(os.environ, CARGO_NET_OFFLINE="true")
    proc = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["svc-udp", "svc-churn", "sim-mpil"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [
        os.path.join(target_dir(), "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--state-dir", os.path.join(target_dir(), "perfbench-state"),
    ]
    if args.trace:
        cmd += ["--trace-dir", os.path.join(target_dir(), "perfbench-traces")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode in (0, 1):
        sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
