#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot-inmem --seed 1 --seconds 10 --trace 0

Builds the library under src/ plus perfbench/dprbench.cc into
$CARGO_TARGET_DIR (default .bench_build), runs one measurement on a fresh
scratch directory under it, and prints dprbench's report. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes spans to <build dir>/traces/. The exit code is 0 only when every
correctness check passed. Workloads and metrics: perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot-inmem", "cold-tcp", "recovery")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds dprbench; returns its path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j4", "--target", "dprbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "dprbench")


def git_describe():
    """`git describe` of this tree, or "none" outside a git checkout of it."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10)
        if top.returncode or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "none"
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_result(stdout, trace):
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return lines, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return lines[:-1], None
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(result["metrics"]) ^ expected))
        return lines[:-1], None
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no DPR source tree next to perfbench/; nothing to measure")
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 3

    runs = os.path.join(build_root, "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=runs)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--dir=" + run_dir, "--git=" + git_describe()]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace_out=" + os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed)))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("dprbench timed out after %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report, result = parse_result(stdout, args.trace)
    for line in report:
        print(line)
    if result is None:
        log("dprbench exited %d without a valid result" % proc.returncode)
        return proc.returncode or 5
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
