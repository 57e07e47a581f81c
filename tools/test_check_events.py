#!/usr/bin/env python3
"""Self-tests for tools/check_events.py (stdlib unittest; pytest-compatible).

Run with either:
  python3 tools/test_check_events.py
  python3 -m pytest tools/test_check_events.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_events  # noqa: E402


def metrics_snapshot(**overrides) -> dict:
    m = {key: 0 for key in check_events.REQUIRED_STEP_METRICS}
    m.update(overrides)
    return m


def event(etype: str, step: int, **extra) -> dict:
    base = {"type": etype, "step": step}
    defaults = {
        "begin": {"scenario": "t", "backend": "pm+pp", "mode": "fixed",
                  "hydro": True, "restart": False},
        "init": {"a": 0.02},
        "restart": {"a": 0.02, "z": 49.0, "file": "ck.step2"},
        "step": {"a": 0.03, "z": 32.3, "da": 0.01, "wall_s": 0.5, "ke": 1.0,
                 "metrics": metrics_snapshot()},
        "checkpoint": {"a": 0.03, "file": "ck.step2", "bytes": 4096,
                       "write_s": 0.01, "crc": "ok"},
        "ckpt_validate": {"file": "ck.step2", "status": "ok", "detail": ""},
        "recovery": {"file": "ck.step2", "recovered_from": 2, "candidates": 2},
        "error": {"what": "checkpoint", "file": "ck.step2",
                  "status": "open_failed", "detail": "no such directory"},
        "ckpt_prune": {"file": "ck.step1", "pruned_step": 1},
        "output": {"a": 0.03, "z": 32.3, "n_halos": 4, "largest_halo": 32,
                   "kernel_pp": 0.41, "slowest_kernel": "upBarAcF"},
        "run_summary": {"metrics": metrics_snapshot()},
        "end": {"steps": 2, "total_steps": 2, "a": 0.04, "z": 24.0,
                "wall_s": 1.0, "checkpoints": 1},
    }
    base.update(defaults.get(etype, {}))
    base.update(extra)
    return base


def valid_stream() -> list[dict]:
    return [
        event("begin", 0),
        event("init", 0),
        event("step", 1),
        event("checkpoint", 2),
        event("step", 2),
        event("run_summary", 2),
        event("end", 2),
    ]


def check_lines(events: list) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
        return check_events.check_jsonl(path)


def check_trace_obj(trace, min_threads=1, min_workers=0,
                    assert_overlap=None) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        path.write_text(json.dumps(trace), encoding="utf-8")
        return check_events.check_trace(path, min_threads, min_workers,
                                        assert_overlap)


def lane_meta(tid: int, name: str) -> dict:
    return {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name}}


def span(tid: int, name: str, ts=0.0, dur=1.0) -> dict:
    return {"name": name, "cat": "hacc", "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": tid}


class JsonlStream(unittest.TestCase):
    def test_valid_stream_passes(self):
        self.assertEqual(check_lines(valid_stream()), [])

    def test_restart_stream_passes(self):
        events = valid_stream()
        events[1] = event("restart", 2)
        self.assertEqual(check_lines(events), [])

    def test_recovery_scan_prelude_passes(self):
        # `--restart auto`: validation verdicts and the recovery record sit
        # between `begin` and the `restart` that starts the run.
        events = valid_stream()
        events[1:2] = [
            event("ckpt_validate", 4, status="crc_mismatch"),
            event("ckpt_validate", 2),
            event("recovery", 2),
            event("restart", 2),
        ]
        self.assertEqual(check_lines(events), [])

    def test_fresh_start_recovery_prelude_passes(self):
        events = valid_stream()
        events[1:1] = [event("recovery", 0, recovered_from=-1, candidates=0)]
        self.assertEqual(check_lines(events), [])

    def test_missing_start_after_recovery_scan_flagged(self):
        events = valid_stream()
        events[1] = event("recovery", 2)  # scan verdicts but no init/restart
        problems = check_lines(events)
        self.assertTrue(any('"init" or "restart"' in p for p in problems))

    def test_output_event_requires_cascade_fields(self):
        events = valid_stream()
        events.insert(5, event("output", 2))
        self.assertEqual(check_lines(events), [])
        for key in ("kernel_pp", "slowest_kernel"):
            del events[5][key]
            self.assertTrue(any(f'"output" event missing "{key}"' in p
                                for p in check_lines(events)), key)

    def test_checkpoint_missing_crc_flagged(self):
        events = valid_stream()
        del events[3]["crc"]
        problems = check_lines(events)
        self.assertTrue(any('missing "crc"' in p for p in problems))

    def test_ckpt_validate_missing_status_flagged(self):
        events = valid_stream()
        events[1:2] = [event("ckpt_validate", 2), event("init", 0)]
        del events[1]["status"]
        problems = check_lines(events)
        self.assertTrue(any('missing "status"' in p for p in problems))

    def test_error_event_missing_what_flagged(self):
        events = valid_stream()
        bad = event("error", 2)
        del bad["what"]
        events.insert(4, bad)
        problems = check_lines(events)
        self.assertTrue(any('missing "what"' in p for p in problems))

    def test_prune_event_missing_pruned_step_flagged(self):
        events = valid_stream()
        bad = event("ckpt_prune", 2)
        del bad["pruned_step"]
        events.insert(4, bad)
        problems = check_lines(events)
        self.assertTrue(any('missing "pruned_step"' in p for p in problems))

    def test_new_checkpoint_metrics_required(self):
        events = valid_stream()
        del events[2]["metrics"]["ckpt.recovered_from"]
        problems = check_lines(events)
        self.assertTrue(
            any('missing "ckpt.recovered_from"' in p for p in problems))

    def test_invalid_json_line_flagged(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.jsonl"
            path.write_text('{"type":"begin","step":0\n', encoding="utf-8")
            problems = check_events.check_jsonl(path)
        self.assertTrue(any("not valid JSON" in p for p in problems))

    def test_missing_type_flagged(self):
        events = valid_stream()
        del events[2]["type"]
        problems = check_lines(events)
        self.assertTrue(any('"type"' in p for p in problems))

    def test_missing_step_flagged(self):
        events = valid_stream()
        del events[2]["step"]
        problems = check_lines(events)
        self.assertTrue(any('integer "step"' in p for p in problems))

    def test_step_without_metrics_flagged(self):
        events = valid_stream()
        del events[2]["metrics"]
        problems = check_lines(events)
        self.assertTrue(any('missing "metrics"' in p for p in problems))

    def test_missing_metric_key_flagged(self):
        events = valid_stream()
        del events[2]["metrics"]["tree.builds"]
        problems = check_lines(events)
        self.assertTrue(any('missing "tree.builds"' in p for p in problems))

    def test_non_numeric_metric_flagged(self):
        events = valid_stream()
        events[2]["metrics"]["ops.launches"] = "three"
        problems = check_lines(events)
        self.assertTrue(any("not a number" in p for p in problems))

    def test_missing_begin_flagged(self):
        problems = check_lines(valid_stream()[1:])
        self.assertTrue(any('open with "begin"' in p for p in problems))

    def test_missing_run_summary_flagged(self):
        events = valid_stream()
        del events[-2]
        problems = check_lines(events)
        self.assertTrue(any('"run_summary"' in p for p in problems))

    def test_missing_end_flagged(self):
        problems = check_lines(valid_stream()[:-1])
        self.assertTrue(any('close with "end"' in p for p in problems))

    def test_step_numbering_gap_flagged(self):
        events = valid_stream()
        events[4]["step"] = 5  # 1 then 5
        problems = check_lines(events)
        self.assertTrue(any("jump from 1 to 5" in p for p in problems))

    def test_checkpoint_missing_bytes_flagged(self):
        events = valid_stream()
        del events[3]["bytes"]
        problems = check_lines(events)
        self.assertTrue(any('missing "bytes"' in p for p in problems))

    def test_empty_file_flagged(self):
        problems = check_lines([])
        self.assertTrue(any("no events" in p for p in problems))


class ChromeTrace(unittest.TestCase):
    def valid_trace(self) -> dict:
        return {"displayTimeUnit": "ms", "traceEvents": [
            lane_meta(0, "main"),
            lane_meta(1, "worker-0"),
            lane_meta(2, "worker-1"),
            span(0, "core.step", 0.0, 100.0),
            span(1, "mesh.cic_scatter", 1.0, 2.0),
            span(2, "xsycl.sph_density", 1.5, 2.5),
        ]}

    def test_valid_trace_passes(self):
        self.assertEqual(check_trace_obj(self.valid_trace()), [])

    def test_min_threads_enforced(self):
        problems = check_trace_obj(self.valid_trace(), min_threads=4)
        self.assertTrue(any("--min-threads 4" in p for p in problems))

    def test_min_workers_satisfied(self):
        self.assertEqual(
            check_trace_obj(self.valid_trace(), min_workers=2), [])

    def test_min_workers_enforced(self):
        problems = check_trace_obj(self.valid_trace(), min_workers=3)
        self.assertTrue(any("worker lane" in p for p in problems))

    def test_bad_span_name_flagged(self):
        trace = self.valid_trace()
        trace["traceEvents"].append(span(0, "NotDotted", 5.0, 1.0))
        problems = check_trace_obj(trace)
        self.assertTrue(any("module.phase" in p for p in problems))

    def test_negative_duration_flagged(self):
        trace = self.valid_trace()
        trace["traceEvents"].append(span(0, "core.kick", 5.0, -1.0))
        problems = check_trace_obj(trace)
        self.assertTrue(any("negative duration" in p for p in problems))

    def test_unnamed_lane_flagged(self):
        trace = self.valid_trace()
        trace["traceEvents"].append(span(9, "core.kick", 5.0, 1.0))
        problems = check_trace_obj(trace)
        self.assertTrue(any("no thread_name" in p for p in problems))

    def test_missing_trace_events_flagged(self):
        problems = check_trace_obj({"displayTimeUnit": "ms"})
        self.assertTrue(any('"traceEvents"' in p for p in problems))

    def overlap_trace(self) -> dict:
        # sched.pm on a lane while the short-range chain runs on main.
        return {"traceEvents": [
            lane_meta(0, "main"),
            lane_meta(3, "sched-0"),
            span(0, "core.step", 0.0, 100.0),
            span(0, "sched.short_range", 10.0, 30.0),
            span(3, "sched.pm", 20.0, 40.0),
        ]}

    def test_assert_overlap_passes_on_concurrent_spans(self):
        self.assertEqual(
            check_trace_obj(self.overlap_trace(),
                            assert_overlap="pm,short_range"), [])

    def test_assert_overlap_matches_dot_segments_not_substrings(self):
        # "pm" must match sched.pm but not a hypothetical sched.pmx.
        trace = self.overlap_trace()
        trace["traceEvents"][4] = span(3, "sched.pmx", 20.0, 40.0)
        problems = check_trace_obj(trace, assert_overlap="pm,short_range")
        self.assertTrue(any('no span matches token "pm"' in p
                            for p in problems))

    def test_assert_overlap_flags_disjoint_spans(self):
        trace = self.overlap_trace()
        trace["traceEvents"][4] = span(3, "sched.pm", 50.0, 40.0)
        problems = check_trace_obj(trace, assert_overlap="pm,short_range")
        self.assertTrue(any("all disjoint in time" in p for p in problems))

    def test_assert_overlap_flags_missing_token(self):
        problems = check_trace_obj(self.overlap_trace(),
                                   assert_overlap="pm,far_field")
        self.assertTrue(any('no span matches token "far_field"' in p
                            for p in problems))

    def test_assert_overlap_rejects_malformed_argument(self):
        problems = check_trace_obj(self.overlap_trace(), assert_overlap="pm")
        self.assertTrue(any("exactly two" in p for p in problems))

    def test_not_json_flagged(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            path.write_text("not json", encoding="utf-8")
            problems = check_events.check_trace(path, 1, 0)
        self.assertTrue(any("not valid JSON" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
