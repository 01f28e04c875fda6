#!/usr/bin/env python3
"""Validates an observability dump produced by a bench run with
DPCF_OBS_DIR set (bench/bench_util.h, MaybeDumpObservability).

Checks, over the four artifacts:
  trace.json    parses as Chrome trace_event JSON: a traceEvents list of
                well-formed events (complete events carry a non-negative
                duration) in the engine's known categories
  metrics.prom  parses as Prometheus text exposition, and the cross-layer
                accounting reconciles exactly:
                  logical_reads == sum(hits) + sum(misses)
                  sum(misses)   == disk seq + rand reads
                  prefetch_hits <= disk prefetch reads
                (metric names need no check here: the compiler checks
                them where they are written, obs/metrics_registry.h)
  journal.json  the flight-recorder dump has the documented shape: integer
                capacity/thread/drop fields and a ts_us-sorted event list
                whose types are all in the engine's current event taxonomy
                (a retired event fails); when the run read ahead, the
                journal carries ring_submit events and metrics.prom carries
                the per-class disk_queue_wait_us / disk_service_time_us
                histograms
  explain.txt   the annotated EXPLAIN ANALYZE plan shows actual and
                estimated DPC per monitored expression

Usage: tools/check_observability.py --dir DUMP_DIR
Exit status 0 when every check passes, 1 otherwise.

CI runs this against a monitored+traced fig6 smoke run (see
.github/workflows/ci.yml), so a regression in any exporter fails the
build rather than producing an unloadable trace or a figure whose
counters quietly disagree with IoStats.
"""

import argparse
import json
import os
import re
import sys

KNOWN_CATEGORIES = {"exec", "io", "monitor", "op", "scan"}
SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$")
LABEL = re.compile(r'(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>[^"]*)"')

errors = []


def fail(msg):
    errors.append(msg)
    print(f"FAIL: {msg}")


def ok(msg):
    print(f"ok:   {msg}")


def load(dump_dir, name):
    path = os.path.join(dump_dir, name)
    if not os.path.isfile(path):
        fail(f"{name} missing from {dump_dir}")
        return None
    with open(path, encoding="utf-8") as f:
        return f.read()


def check_trace(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"trace.json does not parse: {e}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace.json has no traceEvents")
        return
    cats = set()
    for i, e in enumerate(events):
        for field in ("name", "cat", "ph", "ts", "pid", "tid"):
            if field not in e:
                fail(f"trace event {i} missing '{field}': {e}")
                return
        if e["ph"] not in ("X", "i"):
            fail(f"trace event {i} has unknown phase {e['ph']!r}")
            return
        if e["ph"] == "X" and e.get("dur", -1) < 0:
            fail(f"complete event {i} has negative/missing dur: {e}")
            return
        cats.add(e["cat"])
    unknown = cats - KNOWN_CATEGORIES
    if unknown:
        fail(f"trace.json has unknown categories {sorted(unknown)}")
    ok(f"trace.json: {len(events)} events in categories {sorted(cats)}")


def parse_prometheus(text):
    """Returns {(name, frozen labels): float value}."""
    samples = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = SAMPLE.match(line)
        if m is None:
            fail(f"metrics.prom:{line_no}: unparseable sample: {line}")
            continue
        labels = frozenset(
            (lm.group("k"), lm.group("v"))
            for lm in LABEL.finditer(m.group("labels") or ""))
        try:
            value = float(m.group("value"))
        except ValueError:
            fail(f"metrics.prom:{line_no}: non-numeric value: {line}")
            continue
        samples[(m.group("name"), labels)] = value
    return samples


def family_sum(samples, name):
    return sum(v for (n, _), v in samples.items() if n == name)


def labeled(samples, name, **labels):
    want = frozenset(labels.items())
    for (n, ls), v in samples.items():
        if n == name and want <= ls:
            return v
    fail(f"metrics.prom has no sample {name}{labels}")
    return 0.0


def check_reconciliation(samples):
    logical = labeled(samples, "buffer_pool_logical_reads_total")
    hits = family_sum(samples, "buffer_pool_hits_total")
    misses = family_sum(samples, "buffer_pool_misses_total")
    if logical != hits + misses:
        fail(f"logical_reads {logical} != hits {hits} + misses {misses}")
    else:
        ok(f"logical_reads {logical:.0f} == hits + misses")

    seq = labeled(samples, "disk_reads_total", **{"class": "seq"})
    rand = labeled(samples, "disk_reads_total", **{"class": "rand"})
    if misses != seq + rand:
        fail(f"pool misses {misses} != disk demand reads {seq + rand}")
    else:
        ok(f"pool misses {misses:.0f} == disk seq + rand reads")

    prefetch_hits = labeled(samples, "buffer_pool_prefetch_hits_total")
    prefetch_reads = labeled(samples, "disk_reads_total",
                             **{"class": "prefetch"})
    if prefetch_hits > prefetch_reads:
        fail(f"prefetch_hits {prefetch_hits} > prefetch reads "
             f"{prefetch_reads}")
    else:
        ok(f"prefetch_hits {prefetch_hits:.0f} <= prefetch reads "
           f"{prefetch_reads:.0f}")


# Event taxonomy of src/obs/event_journal.h (JournalEventName). "none"
# never appears in a dump but is legal in the enum. Retired events
# (ring_dispatch, ring_complete, backpressure_begin, backpressure_end,
# readahead_resize) are not listed, so a dump carrying one fails.
KNOWN_JOURNAL_EVENTS = {
    "none", "ring_submit", "loading_wait", "monitor_build",
    "monitor_merge", "eviction", "drift_alert",
}


def check_journal(text):
    """Validates journal.json; returns its parsed document (or None)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"journal.json does not parse: {e}")
        return None
    for field in ("capacity", "threads", "dropped_overwritten"):
        if not isinstance(doc.get(field), int) or doc[field] < 0:
            fail(f"journal.json '{field}' is not a non-negative int: "
                 f"{doc.get(field)!r}")
            return None
    events = doc.get("events")
    if not isinstance(events, list):
        fail("journal.json 'events' is not a list")
        return None
    last_ts = 0
    for i, e in enumerate(events):
        for field in ("ts_us", "thread", "a", "b"):
            if not isinstance(e.get(field), int) or e[field] < 0:
                fail(f"journal event {i} '{field}' is not a "
                     f"non-negative int: {e}")
                return None
        if e.get("type") not in KNOWN_JOURNAL_EVENTS:
            fail(f"journal event {i} has unknown type {e.get('type')!r}")
            return None
        if e["ts_us"] < last_ts:
            fail(f"journal event {i} breaks the ts_us sort order")
            return None
        last_ts = e["ts_us"]
        if e["thread"] >= doc["threads"]:
            fail(f"journal event {i} thread {e['thread']} out of range "
                 f"(threads={doc['threads']})")
            return None
    if len(events) > doc["capacity"]:
        fail(f"journal.json holds {len(events)} events, more than its "
             f"capacity {doc['capacity']}")
        return None
    ok(f"journal.json: {len(events)} events, thread indexes below "
       f"{doc['threads']}, sorted and well-typed")
    return doc


def check_readahead(samples, journal):
    """When the run read ahead, each scheduled prefetch must have left its
    queue-wait and service-time observations and its flight-recorder
    event behind."""
    prefetched = labeled(samples, "disk_reads_total",
                         **{"class": "prefetch"})
    if prefetched <= 0:
        ok("no prefetch reads — readahead attribution checks skipped")
        return
    for family in ("disk_queue_wait_us", "disk_service_time_us"):
        classes = {
            dict(ls).get("class")
            for (n, ls), _ in samples.items()
            if n == family + "_count"
        }
        classes.discard(None)
        if not classes:
            fail(f"{prefetched:.0f} prefetch reads but metrics.prom "
                 f"has no {family} samples")
        elif not classes <= {"demand", "prefetch"}:
            fail(f"{family} has unexpected class labels "
                 f"{sorted(classes)}")
        else:
            ok(f"{family} present with classes {sorted(classes)}")
    if journal is None:
        return
    types = {e["type"] for e in journal["events"]}
    if journal["events"] and "ring_submit" not in types:
        fail(f"{prefetched:.0f} prefetch reads but journal.json lacks "
             "ring_submit events")
    elif journal["events"]:
        ok("journal.json carries ring_submit events")


def check_explain(text):
    for needle in ("actual rows=", "actualDpc=", "estDpc="):
        if needle not in text:
            fail(f"explain.txt lacks '{needle}' — not an annotated plan?")
            return
    ok("explain.txt is an annotated plan with estimated vs actual DPC")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", required=True,
                        help="dump directory (DPCF_OBS_DIR of the run)")
    args = parser.parse_args()

    trace = load(args.dir, "trace.json")
    prom = load(args.dir, "metrics.prom")
    journal = load(args.dir, "journal.json")
    explain = load(args.dir, "explain.txt")
    if errors:
        return 1

    check_trace(trace)
    samples = parse_prometheus(prom)
    check_reconciliation(samples)
    journal_doc = check_journal(journal)
    check_readahead(samples, journal_doc)
    check_explain(explain)

    if errors:
        print(f"\n{len(errors)} check(s) failed")
        return 1
    print("\nall observability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
