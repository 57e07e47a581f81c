#!/usr/bin/env python3
"""Self-tests for tools/trace_report.py (stdlib unittest; pytest-compatible).

Run with either:
  python3 tools/test_trace_report.py
  python3 -m pytest tools/test_trace_report.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import trace_report  # noqa: E402


def span(tid: int, name: str, ts_us: float, dur_us: float) -> dict:
    return {"name": name, "cat": "hacc", "ph": "X", "ts": ts_us,
            "dur": dur_us, "pid": 1, "tid": tid}


def lane(tid: int, name: str) -> dict:
    return {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name}}


class MergedBusy(unittest.TestCase):
    def test_disjoint_intervals_sum(self):
        self.assertAlmostEqual(
            trace_report.merged_busy_us([(0, 10), (20, 30)]), 20.0)

    def test_nested_intervals_not_double_counted(self):
        # core.step [0,100] containing core.kick [10,20]: busy is 100, not 110.
        self.assertAlmostEqual(
            trace_report.merged_busy_us([(0, 100), (10, 20)]), 100.0)

    def test_overlapping_intervals_merge(self):
        self.assertAlmostEqual(
            trace_report.merged_busy_us([(0, 10), (5, 15)]), 15.0)

    def test_empty(self):
        self.assertAlmostEqual(trace_report.merged_busy_us([]), 0.0)


class PhaseRows(unittest.TestCase):
    def test_counts_totals_and_order(self):
        spans = [span(0, "core.step", 0, 100.0),
                 span(0, "core.kick", 0, 30.0),
                 span(0, "core.kick", 50, 20.0)]
        rows = trace_report.phase_rows(spans)
        self.assertEqual(rows[0][0], "core.step")  # largest total first
        kick = rows[1]
        self.assertEqual(kick[1], 2)                      # count
        self.assertAlmostEqual(kick[2], 50.0 / 1e6)       # total_s
        self.assertAlmostEqual(kick[3], 25.0 / 1e6)       # mean_s
        self.assertAlmostEqual(kick[4], 30.0 / 1e6)       # max_s


class ThreadRows(unittest.TestCase):
    def test_busy_and_utilization(self):
        spans = [span(0, "core.step", 0, 100.0),
                 span(1, "mesh.cic_scatter", 0, 25.0),
                 span(1, "mesh.cic_scatter", 50, 25.0)]
        lanes = {0: "main", 1: "worker-0"}
        rows = trace_report.thread_rows(spans, lanes)
        self.assertEqual(len(rows), 2)
        self.assertEqual(rows[0][0], "main")
        self.assertAlmostEqual(rows[0][3], 1.0)   # busy for the whole wall
        self.assertEqual(rows[1][0], "worker-0")
        self.assertEqual(rows[1][1], 2)
        self.assertAlmostEqual(rows[1][2], 50.0 / 1e6)
        self.assertAlmostEqual(rows[1][3], 0.5)   # half the traced wall

    def test_unnamed_lane_gets_fallback(self):
        rows = trace_report.thread_rows([span(7, "core.step", 0, 10.0)], {})
        self.assertEqual(rows[0][0], "thread-7")


class SlowestRows(unittest.TestCase):
    def test_longest_instances_first_with_lane_and_start(self):
        spans = [span(0, "core.step", 100, 1000.0),
                 span(1, "sched.pm", 300, 400.0),
                 span(1, "sched.pm", 1200, 50.0),
                 span(0, "core.kick", 150, 200.0)]
        rows = trace_report.slowest_rows(spans, {0: "main"}, 2)
        self.assertEqual([r[0] for r in rows], ["core.step", "sched.pm"])
        self.assertEqual([r[1] for r in rows], ["main", "thread-1"])
        self.assertAlmostEqual(rows[1][2], 200.0 / 1e6)  # start since first
        self.assertAlmostEqual(rows[1][3], 400.0 / 1e6)  # one instance, not a sum
        self.assertEqual(len(trace_report.slowest_rows(spans, {}, 9)), 4)


class EndToEnd(unittest.TestCase):
    def test_report_renders_and_main_exits_zero(self):
        trace = {"displayTimeUnit": "ms", "traceEvents": [
            lane(0, "main"), lane(1, "worker-0"),
            span(0, "core.step", 0, 1000.0),
            span(0, "core.kick", 100, 200.0),
            span(1, "xsycl.sph_density", 100, 300.0),
        ]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            path.write_text(json.dumps(trace), encoding="utf-8")
            spans, lanes = trace_report.load_events(path)
            report = trace_report.render_report(spans, lanes, slowest=1)
            self.assertEqual(trace_report.main(["--slowest", "1", str(path)]), 0)
        self.assertIn("core.step", report)
        self.assertIn("worker-0", report)
        self.assertIn("core.step wall: 0.0010 s", report)
        slowest = report.split("slowest span", 1)[1]
        self.assertIn("core.step", slowest)
        self.assertNotIn("core.kick", slowest)

    def test_empty_trace_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            path.write_text(json.dumps({"traceEvents": []}), encoding="utf-8")
            self.assertEqual(trace_report.main([str(path)]), 1)


if __name__ == "__main__":
    unittest.main()
