"""Unit tests for the Chrome-trace export (repro.obs.timeline)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs import tracer as spans
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import (
    TRACE_SCHEMA,
    build_chrome_trace,
    reconcile_spans,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer


def well_formed_tracer():
    """A hand-built two-request trace with every event kind."""
    tracer = Tracer()
    tracer.span(spans.REQUEST, 0.0, 4.0, request_id="r0",
                finish_reason="length")
    tracer.span(spans.QUEUED, 0.0, 1.0, request_id="r0")
    tracer.span(spans.PREFILL, 1.0, 2.0, request_id="r0", pos=4)
    tracer.instant(spans.TOKEN, 2.0, request_id="r0", index=0)
    tracer.span(spans.DECODE, 2.0, 3.0, request_id="r0", pos=5)
    tracer.instant(spans.TOKEN, 3.0, request_id="r0", index=1)
    tracer.span(spans.REQUEST, 0.5, 3.5, request_id="r1",
                finish_reason="stop")
    tracer.span(spans.QUEUED, 0.5, 1.5, request_id="r1")
    tracer.instant(spans.TOKEN, 2.5, request_id="r1", index=0)
    tracer.span(spans.STEP, 1.0, 2.0, n_slots=2)
    return tracer


class TestReconcileSpans:
    def test_latencies_from_spans(self):
        rec = reconcile_spans(well_formed_tracer().spans)
        assert set(rec) == {"r0", "r1"}
        r0 = rec["r0"]
        assert r0["arrival_s"] == 0.0
        assert r0["finish_s"] == 4.0
        assert r0["latency_s"] == 4.0
        assert r0["ttft_s"] == 2.0
        assert r0["itl_s"] == [1.0]
        assert r0["n_tokens"] == 2
        assert r0["finish_reason"] == "length"
        assert rec["r1"]["ttft_s"] == 2.0  # 2.5 - 0.5

    def test_tokenless_request(self):
        tracer = Tracer()
        tracer.span(spans.REQUEST, 0.0, 1.0, request_id="r0",
                    finish_reason="cancelled")
        rec = reconcile_spans(tracer.spans)
        assert rec["r0"]["ttft_s"] is None
        assert rec["r0"]["itl_s"] == []

    def test_duplicate_roots_rejected(self):
        tracer = Tracer()
        tracer.span(spans.REQUEST, 0.0, 1.0, request_id="r0")
        tracer.span(spans.REQUEST, 0.0, 2.0, request_id="r0")
        with pytest.raises(ValueError, match="multiple root spans"):
            reconcile_spans(tracer.spans)


class TestBuildChromeTrace:
    def test_payload_shape(self):
        registry = MetricsRegistry()
        registry.counter("speedllm_steps_total").inc()
        payload = build_chrome_trace(well_formed_tracer(),
                                     registry=registry,
                                     meta={"command": "unit-test"})
        assert payload["displayTimeUnit"] == "ms"
        other = payload["otherData"]
        assert other["schema"] == TRACE_SCHEMA
        assert other["clock"] == "simulated-seconds"
        assert other["makespan_seconds"] == 4.0
        assert other["tracks"] == ["engine-0"]
        assert other["meta"] == {"command": "unit-test"}
        assert "speedllm_steps_total" in other["metrics"]

    def test_event_kinds_and_timestamps(self):
        payload = build_chrome_trace(well_formed_tracer())
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        # One process per track plus one thread lane per (track, lane).
        assert {m["name"] for m in meta} >= {
            "process_name", "thread_name"}
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 3  # the token marks
        assert all(e["s"] == "t" for e in instants)
        prefill = next(e for e in complete if e["name"] == spans.PREFILL)
        assert prefill["ts"] == pytest.approx(1.0 * 1e6)
        assert prefill["dur"] == pytest.approx(1.0 * 1e6)
        assert prefill["args"]["request_id"] == "r0"
        step = next(e for e in complete if e["name"] == spans.STEP)
        assert step["cat"] == "engine"
        assert "request_id" not in step["args"]

    def test_requests_share_a_lane_per_id(self):
        payload = build_chrome_trace(well_formed_tracer())
        events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        tids = {e["args"].get("request_id"): set() for e in events}
        for event in events:
            tids[event["args"].get("request_id")].add(event["tid"])
        assert len(tids["r0"]) == 1
        assert len(tids["r1"]) == 1
        assert tids["r0"] != tids["r1"]

    def test_write_round_trips(self, tmp_path):
        payload = build_chrome_trace(well_formed_tracer())
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), payload)
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["schema"] == TRACE_SCHEMA
        assert validate_chrome_trace(loaded) == []


class TestValidateChromeTrace:
    def _payload(self):
        return build_chrome_trace(well_formed_tracer())

    def test_well_formed_passes(self):
        assert validate_chrome_trace(self._payload()) == []

    def test_empty_payload(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or empty"]

    def test_registry_counters_must_sum_to_the_report(self):
        registry = MetricsRegistry()
        for track, steps, slots in (("a", 3, 7), ("b", 2, 4)):
            labels = {"track": track}
            registry.counter("speedllm_steps_total", labels=labels).inc(steps)
            registry.counter("speedllm_slot_tokens_total",
                             labels=labels).inc(slots)
            registry.counter("speedllm_requests_finished_total",
                             labels={**labels, "reason": "length"}).inc()
        payload = build_chrome_trace(well_formed_tracer(), registry=registry)
        # No preemption ever happened: the family is absent, which reads 0.
        payload["otherData"]["report"] = {
            "n_steps": 5, "total_slots": 11, "n_preemptions": 0,
            "n_requests": 2}
        assert validate_chrome_trace(payload) == []
        # A handed-off stub counted as finished on both replicas.
        payload["otherData"]["report"]["n_requests"] = 1
        problems = validate_chrome_trace(payload)
        assert len(problems) == 1
        assert "speedllm_requests_finished_total sums to 2" in problems[0]

    def test_wrong_schema_flagged(self):
        payload = self._payload()
        payload["otherData"]["schema"] = "SOMETHING_ELSE"
        assert any("schema" in p for p in validate_chrome_trace(payload))

    def test_event_outside_bounds_flagged(self):
        payload = self._payload()
        payload["otherData"]["makespan_seconds"] = 0.001
        problems = validate_chrome_trace(payload)
        assert any("outside the run bounds" in p for p in problems)

    def test_duplicate_root_flagged(self):
        payload = copy.deepcopy(self._payload())
        root = next(e for e in payload["traceEvents"]
                    if e.get("name") == spans.REQUEST)
        payload["traceEvents"].append(copy.deepcopy(root))
        problems = validate_chrome_trace(payload)
        assert any("multiple root spans" in p for p in problems)

    def test_orphan_stage_flagged(self):
        payload = self._payload()
        payload["traceEvents"] = [
            e for e in payload["traceEvents"]
            if not (e.get("name") == spans.REQUEST
                    and (e.get("args") or {}).get("request_id") == "r0")]
        problems = validate_chrome_trace(payload)
        assert any("no root span" in p for p in problems)

    def test_stage_escaping_root_flagged(self):
        payload = self._payload()
        prefill = next(e for e in payload["traceEvents"]
                       if e.get("name") == spans.PREFILL)
        prefill["dur"] = 10.0 * 1e6  # runs far past the root's end
        payload["otherData"]["makespan_seconds"] = 20.0
        problems = validate_chrome_trace(payload)
        assert any("escapes its root span" in p for p in problems)

    def test_gapped_token_indices_flagged(self):
        payload = self._payload()
        token = next(e for e in payload["traceEvents"]
                     if e.get("name") == spans.TOKEN
                     and e["args"]["index"] == 1)
        token["args"]["index"] = 5
        problems = validate_chrome_trace(payload)
        assert any("contiguous" in p for p in problems)

    def test_report_mismatch_flagged(self):
        payload = self._payload()
        payload["otherData"]["requests"] = {
            "r0": {"ttft_s": 1.5, "itl_s": [1.0], "n_tokens": 2},
        }
        problems = validate_chrome_trace(payload)
        assert any("TTFT" in p for p in problems)

    def test_report_token_count_mismatch_flagged(self):
        payload = self._payload()
        payload["otherData"]["requests"] = {
            "r1": {"ttft_s": 2.0, "itl_s": [], "n_tokens": 7},
        }
        problems = validate_chrome_trace(payload)
        assert any("token events" in p for p in problems)
