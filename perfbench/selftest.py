#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale pass of every workload.

Usage, from the root of a checkout:

  python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract's limits, then runs
every workload of it through perfbench/run.py at a small table size, once
untraced and once traced, and checks that each run's last line parses,
reports every end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json with its unit, and that every loop passed its checks.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROWS = 20000
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    errors = []
    keys = ["command", "end_to_end", "paths", "per_layer", "run_seconds",
            "workloads"]
    if sorted(spec) != keys:
        errors.append("top-level keys %s" % sorted(spec))
    workloads = spec.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        errors.append("%d workloads" % len(workloads))
    names = []
    for w in workloads:
        if sorted(w) != ["name", "why"] or len(w["why"]) > 200 \
                or "\n" in w["why"]:
            errors.append("workload %r" % w)
        names.append(w.get("name", ""))
    for group, lo, hi, keys in (
            ("end_to_end", 1, 16, ["better", "bound", "name", "unit"]),
            ("per_layer", 1, 128, ["better", "name", "unit"])):
        metrics = spec.get(group, [])
        if not lo <= len(metrics) <= hi:
            errors.append("%d %s metrics" % (len(metrics), group))
        for m in metrics:
            if sorted(m) != keys or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("lower", "higher"):
                errors.append("%s metric %r" % (group, m))
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append("bound of %s" % m["name"])
            names.append(m.get("name", ""))
    for n in names:
        if not NAME.match(n):
            errors.append("bad name %r" % n)
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    setup = [m for m in spec.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s missing or malformed")
    if not 1 <= spec.get("run_seconds", 0) <= 60:
        errors.append("run_seconds")
    return errors


def run(workload, trace, want):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--rows", str(ROWS)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    if r.returncode != 0:
        return ["exit code %d: %s" % (r.returncode, r.stderr[-2000:])]
    res = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
    errors = []
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        errors.append("correct=%s attempted=%s failed=%s" % (
            res["correct"], res["attempted"], res["failed"]))
    for name, unit in want.items():
        m = res["metrics"].get(name)
        if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
            errors.append("metric %s: %r" % (name, m))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = ["BENCHMARK.json: " + e for e in check_spec(spec)]
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            errors = run(w["name"], trace, want)
            print("%-14s trace=%d %s" % (w["name"], trace,
                                         "ok" if not errors else "FAIL"))
            failures += ["%s trace=%d: %s" % (w["name"], trace, e)
                         for e in errors]
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
