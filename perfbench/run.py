#!/usr/bin/env python3
"""Builds the feedback-loop benchmark from source and runs one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload single_table --seed 1 --seconds 30 \
      --trace 0

The engine (src/) and the perfbench program are compiled into .bench_build/
(an incremental no-op once built). The program's report lines are relayed to
stdout; the last stdout line is the run's result, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones, and
also writes the recorded spans to .bench_build/spans/. Exits non-zero,
printing no result, when the build, the run or the result's shape fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line[:200])
    if not isinstance(res, dict) or sorted(res) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("result keys are wrong")
    if not isinstance(res["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            fail("'%s' is not a whole number" % key)
    if res["attempted"] < 1:
        fail("no loop attempted")
    metrics = res["metrics"]
    want = expected_metrics(trace)
    if sorted(metrics) != sorted(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    for name, m in metrics.items():
        value = m.get("value")
        if (sorted(m) != ["unit", "value"] or m["unit"] != want[name]
                or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail("metric %s is malformed: %r" % (name, m))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=0,
                    help="override the workload's table rows (self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.rows < 0:
        fail("--seed, --seconds and --rows must not be negative")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rows", str(args.rows)]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("benchmark exited with code %d" % r.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
