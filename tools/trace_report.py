#!/usr/bin/env python3
"""Per-phase / per-thread utilization report for hacc_run --trace output.

  python3 tools/trace_report.py trace.json
  python3 tools/trace_report.py --slowest 5 trace.json

Reads a Chrome trace_event file (the `hacc_run --trace=out.json` export) and
prints two tables, plus a third with --slowest N:

  phases    every span name with call count, total/mean/max duration, and
            its share of the run (the core.step total is the reference
            wall time — the acceptance bar is that it agrees with the
            runner's StepStats totals within 5%).
  threads   every lane with its span count and busy time as a union of
            span intervals (nested spans are not double-counted), plus
            utilization relative to the traced wall span.
  slowest   the N longest individual span instances, longest first, with
            lane and start time (seconds since the first traced span).

Durations in the file are microseconds (Chrome convention); everything is
reported in seconds.  See docs/OBSERVABILITY.md for the span catalog.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path


def load_events(path: Path) -> tuple[list[dict], dict[int, str]]:
    """Returns ("X" duration events, lane names by tid)."""
    trace = json.loads(path.read_text(encoding="utf-8"))
    events = trace.get("traceEvents", []) if isinstance(trace, dict) else []
    lanes: dict[int, str] = {}
    spans: list[dict] = []
    for e in events:
        if not isinstance(e, dict):
            continue
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            lanes[e.get("tid", 0)] = e.get("args", {}).get("name", "")
        elif e.get("ph") == "X":
            spans.append(e)
    return spans, lanes


def merged_busy_us(intervals: list[tuple[float, float]]) -> float:
    """Total covered length of a set of [start, end) intervals.

    Spans nest (core.step contains core.kick contains ...), so a lane's busy
    time is the union of its intervals, not their sum.
    """
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def phase_rows(spans: list[dict]) -> list[tuple[str, int, float, float, float]]:
    """[(name, count, total_s, mean_s, max_s)] sorted by total, descending."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for e in spans:
        by_name[e.get("name", "?")].append(float(e.get("dur", 0.0)) / 1e6)
    rows = [(name, len(ds), sum(ds), sum(ds) / len(ds), max(ds))
            for name, ds in by_name.items()]
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows


def thread_rows(spans: list[dict], lanes: dict[int, str]
                ) -> list[tuple[str, int, float, float]]:
    """[(lane, spans, busy_s, utilization)] in tid order.

    Utilization is busy time over the whole traced wall span (first span
    start to last span end across every lane), so idle worker lanes read
    low even when each of their spans was dense.
    """
    by_tid: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for e in spans:
        ts = float(e.get("ts", 0.0))
        by_tid[e.get("tid", 0)].append((ts, ts + float(e.get("dur", 0.0))))
    if not by_tid:
        return []
    t0 = min(lo for iv in by_tid.values() for lo, _ in iv)
    t1 = max(hi for iv in by_tid.values() for _, hi in iv)
    wall_us = max(t1 - t0, 1e-9)
    rows = []
    for tid in sorted(by_tid):
        busy = merged_busy_us(by_tid[tid])
        rows.append((lanes.get(tid, f"thread-{tid}"), len(by_tid[tid]),
                     busy / 1e6, busy / wall_us))
    return rows


def slowest_rows(spans: list[dict], lanes: dict[int, str], n: int
                 ) -> list[tuple[str, str, float, float]]:
    """[(name, lane, start_s, dur_s)] of the n longest span instances,
    longest first; start is seconds since the earliest span start."""
    t0 = min((float(e.get("ts", 0.0)) for e in spans), default=0.0)
    longest = sorted(spans, key=lambda e: -float(e.get("dur", 0.0)))[:n]
    return [(e.get("name", "?"),
             lanes.get(e.get("tid", 0), f"thread-{e.get('tid', 0)}"),
             (float(e.get("ts", 0.0)) - t0) / 1e6,
             float(e.get("dur", 0.0)) / 1e6)
            for e in longest]


def render_report(spans: list[dict], lanes: dict[int, str],
                  slowest: int = 0) -> str:
    out: list[str] = []
    phases = phase_rows(spans)
    total_s = sum(r[2] for r in phases)
    step_total = next((r[2] for r in phases if r[0] == "core.step"), 0.0)
    wall = step_total if step_total > 0.0 else total_s

    out.append(f"{'phase':<24} {'count':>8} {'total_s':>10} {'mean_ms':>9} "
               f"{'max_ms':>9} {'%wall':>7}")
    for name, count, tot, mean, mx in phases:
        share = 100.0 * tot / wall if wall > 0 else 0.0
        out.append(f"{name:<24} {count:>8} {tot:>10.4f} {mean * 1e3:>9.3f} "
                   f"{mx * 1e3:>9.3f} {share:>6.1f}%")
    out.append("")
    out.append(f"core.step wall: {step_total:.4f} s "
               f"(reference for %wall; sums nested spans separately)")
    out.append("")

    threads = thread_rows(spans, lanes)
    out.append(f"{'thread':<24} {'spans':>8} {'busy_s':>10} {'util':>7}")
    for lane, count, busy, util in threads:
        out.append(f"{lane:<24} {count:>8} {busy:>10.4f} {100.0 * util:>6.1f}%")

    if slowest > 0:
        out.append("")
        out.append(f"{'slowest span':<24} {'thread':<16} {'start_s':>10} "
                   f"{'dur_ms':>9}")
        for name, lane, start, dur in slowest_rows(spans, lanes, slowest):
            out.append(f"{name:<24} {lane:<16} {start:>10.4f} "
                       f"{dur * 1e3:>9.3f}")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", type=Path, help="chrome trace JSON file")
    parser.add_argument("--slowest", type=int, default=0, metavar="N",
                        help="also list the N longest individual spans")
    args = parser.parse_args(argv)
    if args.slowest < 0:
        parser.error("--slowest must be >= 0")
    try:
        spans, lanes = load_events(args.path)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_report: cannot read {args.path}: {e}", file=sys.stderr)
        return 1
    if not spans:
        print(f"trace_report: {args.path} has no duration events",
              file=sys.stderr)
        return 1
    try:
        print(render_report(spans, lanes, args.slowest))
    except BrokenPipeError:  # e.g. piped into head; not an error
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
