#!/usr/bin/env python3
"""Builds and runs grepair's fixed-work benchmark (see README.md).

Usage, from the root of a grepair checkout:

  python3 perfbench/run.py --workload offline_repair|serve_stream|serve_mixed \
      --seed N --seconds S --trace 0|1

Builds the harness and the libraries it links from the checkout's sources
into .bench_build/perfbench (CMake, Release), generates the workload's
inputs from --seed, runs the fixed work --seconds sizes, and prints the
harness's lines: the host-shape header, an info line, and last the result
object {"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics instead of the end-to-end ones, and writes the span trace
and the program's metrics exposition under .bench_build/runs/, which must
pass tools/check_obs_artifacts.py.

Exits non-zero without printing a result when the sources are missing, the
build fails, a correctness check fails, or a declared metric is missing.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNS_DIR = os.path.join(".bench_build", "runs")
HARNESS_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def on_sigterm(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps the harness.
    raise SystemExit(128 + signum)


def build(jobs):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed", 3)
    r = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", str(jobs)],
        stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", 3)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["offline_repair", "serve_stream", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    for path in ("CMakeLists.txt", "src", "tools/check_obs_artifacts.py",
                 "perfbench/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.exists(path):
            fail(f"run from the root of a grepair checkout ({path} missing)",
                 2)
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]

    binary = build(min(4, os.cpu_count() or 1))

    run_dir = os.path.join(
        RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    started = time.monotonic()
    try:
        r = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", run_dir],
            stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"harness exited {r.returncode} "
             f"after {time.monotonic() - started:.1f} s")
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail(f"result lacks declared metrics: {', '.join(missing)}")

    # Keep only what a later reader needs: the traced run's artifacts.
    for name in ("graph.tsv", "rules.grr"):
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            os.remove(path)
    if args.trace:
        check = subprocess.run(
            [sys.executable, "tools/check_obs_artifacts.py",
             os.path.join(run_dir, "trace.json"),
             os.path.join(run_dir, "metrics.prom")],
            stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            fail("trace artifacts failed tools/check_obs_artifacts.py")
    else:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("\n".join(lines))


if __name__ == "__main__":
    main()
