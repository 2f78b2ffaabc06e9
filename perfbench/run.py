#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the repository root is the parent
of this script's directory. The benchmark and the repository's src/ tree
are built with CMake into $CARGO_TARGET_DIR (default .bench_build,
relative to the root). Build output goes to stderr; stdout carries the
benchmark's report, whose last line is the JSON result. The metric names in
that line are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
MAX_THREADS = 4


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; fail on error. The
    step runs in its own process group, so a timeout also stops the
    compilers it spawned."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")


def threads():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(MAX_THREADS, n))


def build(build_dir, jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ tree under {ROOT}; nothing to build")
    run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", str(build_dir), "-j", str(jobs),
                 "--target", "perfbench"], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = target if target.is_absolute() else ROOT / target
    build_dir = build_root / "perfbench"
    jobs = threads()
    build(build_dir, jobs)

    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(jobs)]
    if args.trace:
        spans = build_root / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with {proc.returncode}")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(args.trace)
    got = set(result["metrics"])
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - got)}, extra {sorted(got - want)}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
