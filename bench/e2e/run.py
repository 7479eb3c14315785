#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, runs one workload, and prints the
result as one JSON line (the last line of stdout).

    python3 bench/e2e/run.py --workload mem_uniform --seed 3 --seconds 20 --trace 0

--trace 0 reports every end_to_end metric of BENCHMARK.json, --trace 1 every
per_layer metric. The build goes to $CARGO_TARGET_DIR/e2e (default
.bench_build/e2e) under the checkout root; cached artifacts and per-run
result directories go under its work/ subdirectory. Build output and the
bench's own table go to stderr.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Leaves headroom under the 180 s a run may take once the build exists.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_bench(binary, args, work_dir, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha()]
    # Its own session, so a timeout can stop the bench and its workers
    # together.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"bench_e2e exceeded {RUN_TIMEOUT_S} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("the repository sources are missing; nothing to build")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    work_dir = os.path.join(build_dir, "work")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    code = run_bench(os.path.join(build_dir, "bench_e2e"), args, work_dir,
                     deadline)
    result_path = os.path.join(
        work_dir, "runs",
        f"{args.workload}-s{args.seed}-t{args.trace}", "result.json")
    if not os.path.exists(result_path):
        fail(f"bench_e2e exited {code} without a result")
    with open(result_path) as f:
        result = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"result has no metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
