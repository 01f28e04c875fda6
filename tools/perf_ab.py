#!/usr/bin/env python3
"""Paired A/B runs of perfbench between two checkouts.

Usage, from anywhere:

  python3 tools/perf_ab.py --parent DIR --change DIR --workload join \\
      --pairs 10 --seconds 30 --trace 0 [--seed 7] \\
      [--ledger FILE --claim TEXT --parent-rev REV]

Runs `python3 perfbench/run.py` in the parent and the change checkout
once per pair, alternating which side goes first, with identical
arguments. For every metric the result line reports it prints the
per-pair values, each side's median and quartiles, and the change's win
count. A metric is a gain when the change wins at least nine tenths of
the pairs (ties count for neither) and the medians differ, in the
metric's better direction, by more than the parent's interquartile range.
An end-to-end metric whose change median is worse than the parent's by
more than its BENCHMARK.json bound is flagged as over bound.

Directions and bounds come from the parent's BENCHMARK.json. The script
writes nothing into either checkout itself (run.py keeps its build tree
there); --ledger appends this comparison as one JSON object to the
"comparisons" list of FILE. A new ledger gets the header fields "bench"
(FILE's name without BENCH_ and .json), "claim" (--claim), "parent"
(--parent-rev, the revision the parent checkout was exported from) and
"method". Both flags are required with --ledger, and an existing ledger
whose claim or parent differs is refused before anything runs, so one
file never mixes two claims. Standard library only.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys


def fail(msg):
    print("perf_ab.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run_side(checkout, args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        fail("run.py failed in %s (exit %d)" % (checkout, r.returncode))
    return json.loads(r.stdout.rstrip("\n").split("\n")[-1])


def quartiles(xs):
    s = sorted(xs)
    if len(s) == 1:
        return s[0], s[0], s[0]
    q1, q2, q3 = statistics.quantiles(s, n=4, method="inclusive")
    return q1, q2, q3


def compare(spec, parent, change):
    """Summary of one metric over the pairs; values are per-pair lists."""
    lower = spec.get("better", "lower") == "lower"
    sign = -1.0 if lower else 1.0  # sign * (change - parent) > 0 is better
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    pq, cq = quartiles(parent), quartiles(change)
    gap = cq[1] - pq[1]
    iqr = pq[2] - pq[0]
    out = {
        "unit": spec.get("unit", ""),
        "better": "lower" if lower else "higher",
        "parent": parent,
        "change": change,
        "parent_q1_median_q3": list(pq),
        "change_q1_median_q3": list(cq),
        "change_wins": wins,
        "ties": ties,
        "median_gap": gap,
        "median_gap_pct": 100.0 * gap / abs(pq[1]) if pq[1] else None,
        "parent_iqr": iqr,
        "gain": (wins >= 0.9 * len(parent) and sign * gap > 0
                 and abs(gap) > iqr),
    }
    if "bound" in spec and pq[1]:
        worse = -sign * gap / abs(pq[1])
        out["bound"] = spec["bound"]
        out["over_bound"] = worse > spec["bound"]
    return out


def fmt(v):
    if v is None:
        return "-"
    if abs(v) >= 1000 or v == int(v):
        return "%.6g" % v
    return "%.4g" % v


def report(result):
    print("workload %s, seed %d, %d s, trace %d, %d pairs"
          % (result["workload"], result["seed"], result["seconds"],
             result["trace"], len(result["first"])))
    for side in ("parent", "change"):
        ok = sum(1 for c in result["correct"][side] if c)
        print("  %s: correct %d/%d runs, failed %d of %d attempted"
              % (side, ok, len(result["correct"][side]),
                 sum(result["failed"][side]), sum(result["attempted"][side])))
    for name, m in result["metrics"].items():
        print("\n%s (%s, %s is better)" % (name, m["unit"], m["better"]))
        print("  pair first   %12s %12s" % ("parent", "change"))
        for i, (p, c) in enumerate(zip(m["parent"], m["change"])):
            print("  %4d %-7s %12s %12s" % (i + 1, result["first"][i],
                                           fmt(p), fmt(c)))
        for side in ("parent", "change"):
            q1, med, q3 = m[side + "_q1_median_q3"]
            print("  %s median %s [q1 %s, q3 %s]"
                  % (side, fmt(med), fmt(q1), fmt(q3)))
        verdict = "gain" if m["gain"] else "no gain"
        if m.get("over_bound"):
            verdict += ", WORSE THAN BOUND %g" % m["bound"]
        print("  change wins %d/%d (ties %d); median gap %s (%s%%) vs "
              "parent IQR %s: %s"
              % (m["change_wins"], len(m["parent"]), m["ties"],
                 fmt(m["median_gap"]), fmt(m["median_gap_pct"]),
                 fmt(m["parent_iqr"]), verdict))


METHOD = ("tools/perf_ab.py: alternating parent/change pairs of "
          "perfbench/run.py, each side built by run.py in its own checkout "
          "(RelWithDebInfo); every comparison records its workload, seed, "
          "seconds, trace mode and host")


def open_ledger(path, claim, parent_rev):
    """The ledger at path, or a new one; fails on a different claim."""
    header = {"claim": claim, "parent": parent_rev}
    if not os.path.exists(path):
        name = os.path.basename(path)
        if name.startswith("BENCH_"):
            name = name[len("BENCH_"):]
        if name.endswith(".json"):
            name = name[:-len(".json")]
        return {"bench": name, "claim": claim, "parent": parent_rev,
                "method": METHOD, "comparisons": []}
    with open(path) as f:
        ledger = json.load(f)
    for field, want in header.items():
        if ledger.get(field) != want:
            fail("%s holds %s %s, not %s; write this comparison to its own "
                 "ledger" % (path, field, json.dumps(ledger.get(field)),
                             json.dumps(want)))
    ledger.setdefault("comparisons", [])
    return ledger


def write_ledger(path, ledger):
    """Top-level fields one per line, then one comparison per line."""
    lines = ["%s: %s" % (json.dumps(k), json.dumps(v))
             for k, v in ledger.items() if k != "comparisons"]
    comparisons = ",\n".join(json.dumps(c, separators=(",", ":"))
                             for c in ledger["comparisons"])
    lines.append('"comparisons": [\n%s\n]' % comparisons)
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--ledger", help="JSON file to append the comparison to")
    ap.add_argument("--claim", help="the ledger's claim, one sentence")
    ap.add_argument("--parent-rev",
                    help="revision the parent checkout was exported from")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 0 or args.seed < 0:
        fail("--pairs must be positive, --seconds and --seed not negative")
    ledger = None
    if args.ledger:
        if not args.claim or not args.parent_rev:
            fail("--ledger needs --claim and --parent-rev")
        ledger = open_ledger(args.ledger, args.claim, args.parent_rev)
    elif args.claim or args.parent_rev:
        fail("--claim and --parent-rev describe a --ledger")
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    for side, d in dirs.items():
        if not os.path.isfile(os.path.join(d, "perfbench", "run.py")):
            fail("%s checkout has no perfbench/run.py: %s" % (side, d))
    with open(os.path.join(dirs["parent"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m
             for m in bench["per_layer" if args.trace else "end_to_end"]}

    runs = {"parent": [], "change": []}
    first = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            res = run_side(dirs[side], args)
            runs[side].append(res)
            print("pair %d/%d %s done" % (i + 1, args.pairs, side),
                  file=sys.stderr)

    metrics = {}
    for name, spec in specs.items():
        p = [r["metrics"][name]["value"] for r in runs["parent"]
             if name in r["metrics"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]
             if name in r["metrics"]]
        if len(p) != args.pairs or len(c) != args.pairs:
            continue
        if not all(math.isfinite(v) for v in p + c):
            continue
        metrics[name] = compare(spec, p, c)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "first": first,
        "correct": {s: [r["correct"] for r in runs[s]] for s in runs},
        "attempted": {s: [r["attempted"] for r in runs[s]] for s in runs},
        "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
        "metrics": metrics,
    }
    report(result)
    if ledger is not None:
        ledger["comparisons"].append(result)
        write_ledger(args.ledger, ledger)
    return 0


if __name__ == "__main__":
    sys.exit(main())
