#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The Weaver library, weaver-serverd and
the benchmark runner are built from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), and the runner's working files
(WAL, oracle changelog, span logs) live under the same directory. The
last line of stdout is the result object; BENCHMARK.json names the
workloads and metrics.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

WORKLOADS = ("tao_online", "rw_contended_exec", "bfs_traversal")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(package_dir, build_dir):
    if not (package_dir.parent / "src" / "core" / "weaver.h").is_file():
        fail(f"Weaver sources not found next to {package_dir}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(package_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}")


def run_bench(command):
    """Runs the benchmark binary in its own process group so that every server it
    spawns is stopped with it on a timeout."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"runner did not finish within {RUN_TIMEOUT_S} s")
    # The runner reaps its own servers; anything left in the group is
    # stopped before returning.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    package_dir = pathlib.Path(__file__).resolve().parent
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "perfbench").resolve()
    work_dir = (build_root / "perfbench-work").resolve()
    build(package_dir, build_dir)
    work_dir.mkdir(parents=True, exist_ok=True)

    code, out = run_bench([
        str(build_dir / "weaver_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serverd", str(build_dir / "weaver-serverd"),
        "--work-dir", str(work_dir),
    ])
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 or not lines:
        fail(f"runner exited {code} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("runner's last line is not JSON")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
