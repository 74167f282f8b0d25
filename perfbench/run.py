#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload build-core --seed 1 --seconds 10 --trace 0

The C++ program (perfbench/src) does the measuring; this wrapper configures
and builds it with CMake under .bench_build/, forwards the arguments, and
checks that the program's last stdout line is the result object. Build logs
go to stderr so that stdout ends with that line. The exit code is non-zero
when the build fails, the program fails, or any output was incorrect.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("build-core", "build-nucleus34", "serve-routed", "serve-update")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"


def build():
    """Configures (once) and builds perfbench and nucleus_cli, Release."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
         "--target", "perfbench", "nucleus_cli"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    return BUILD_DIR / "perfbench", BUILD_DIR / "nucleus" / "tools" / "nucleus_cli"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary, cli = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    runs_dir = BUILD_ROOT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--cli", str(cli),
               "--workdir", str(runs_dir)]
    # The program and the servers it spawns share one process group, so a
    # timeout or a signal to this wrapper stops all of them.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        stop()
    lines = stdout.rstrip("\n").split("\n")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        keys_ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, TypeError):
        keys_ok = False
    if not keys_ok:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
