"""Unit tests for the span tracer (repro.obs.tracer)."""

from __future__ import annotations

import pytest

from repro.api import SamplingParams
from repro.llama.kv_cache import KVCache
from repro.obs import tracer as spans
from repro.obs.timeline import build_chrome_trace
from repro.obs.tracer import (CYCLES, NULL_TRACER, SIM_S, Span, Tracer,
                              trace_step)
from repro.serve import SchedulerConfig, ServingEngine, StepTotals
from repro.serve import engine as engine_module
from repro.serve.metrics import StepRecord
from repro.serve.scheduler import PreemptionEvent


class TestSpan:
    def test_duration_and_instant(self):
        tracer = Tracer()
        tracer.span("prefill", 1.0, 3.5)
        tracer.instant("token", 2.0)
        prefill, token = [e for e in build_chrome_trace(tracer)["traceEvents"]
                          if e["ph"] != "M"]
        assert (prefill["ph"], prefill["dur"]) == ("X", 2.5e6)
        assert token["ph"] == "i" and "dur" not in token

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError, match="ends .* before it starts"):
            Span("decode", 5.0, 4.0)

    def test_defaults(self):
        span = Span("step", 0.0, 1.0)
        assert span.request_id is None
        assert span.track == "engine-0"
        assert dict(span.attrs) == {}
        assert span.clock == SIM_S

    def test_cycle_span_interval(self):
        span = Span("t0", 10, 25, clock=CYCLES)
        assert (span.start, span.end, span.clock) == (10, 25, CYCLES)

    def test_invalid_cycle_span_rejected(self):
        with pytest.raises(ValueError, match="ends .* before it starts"):
            Span("t0", 10, 5, clock=CYCLES)
        with pytest.raises(ValueError, match="starts at cycle -1"):
            Span("t0", -1, 5, clock=CYCLES)


class TestDisabledTracer:
    def test_every_emit_is_a_noop(self):
        tracer = Tracer(enabled=False)
        tracer.span("prefill", 0.0, 1.0, request_id="r0")
        tracer.instant("token", 0.5, request_id="r0", index=0)
        trace_step(tracer, StepRecord(
            track="engine-0", start=0.0, end=1.0,
            preempted=[PreemptionEvent("v", 1, "b", 0, time=0.2)],
            totals=StepTotals(n_steps=1, total_slots=1),
            cycle_spans=(_cycles("mpe", "gemm", 0, 10),),
            seconds_per_cycle=1e-9))
        _step(tracer, 0.0, [_cycles("mpe", "gemm", 0, 10)], 1e-9)
        assert len(tracer) == 0
        other = build_chrome_trace(tracer)["otherData"]
        assert (other["start_seconds"], other["makespan_seconds"]) == (0.0, 0.0)
        assert other["n_spans"] == 0

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert len(NULL_TRACER) == 0


class TestTracer:
    def _tracer(self):
        tracer = Tracer()
        tracer.span(spans.REQUEST, 0.0, 4.0, request_id="r0",
                    finish_reason="length")
        tracer.span(spans.QUEUED, 0.0, 1.0, request_id="r0")
        tracer.instant(spans.TOKEN, 2.0, request_id="r0", index=0)
        tracer.span(spans.STEP, 1.0, 2.0, track="replica-1", n_slots=4)
        tracer.span(spans.REQUEST, 0.5, 3.0, request_id="r1")
        return tracer

    def test_emission_and_queries(self):
        tracer = self._tracer()
        assert len(tracer) == 5
        assert [s.name for s in tracer.spans if s.request_id == "r0"] == [
            spans.REQUEST, spans.QUEUED, spans.TOKEN]
        assert len([s for s in tracer.spans if s.name == spans.REQUEST]) == 2
        assert tracer.tracks() == ["engine-0", "replica-1"]
        other = build_chrome_trace(tracer)["otherData"]
        assert (other["start_seconds"], other["makespan_seconds"]) == (0.0, 4.0)

    def test_attrs_are_captured(self):
        tracer = self._tracer()
        (root,) = [s for s in tracer.spans
                   if s.request_id == "r0" and s.name == spans.REQUEST]
        assert root.attrs["finish_reason"] == "length"
        (step,) = [s for s in tracer.spans if s.name == spans.STEP]
        assert step.attrs["n_slots"] == 4
        assert step.request_id is None

    def test_preemption_mirrors_the_audit_event(self, monkeypatch,
                                                 llm):
        """Each ``preempted`` instant is built from the very
        :class:`PreemptionEvent` object the scheduler logged: the step
        record carries a slice of the log, not copies of its events."""
        records = []

        def recording(tracer, record):
            records.append(record)
            trace_step(tracer, record)

        monkeypatch.setattr(engine_module, "trace_step", recording)
        tracer = Tracer()
        block_bytes = KVCache.bytes_per_block(llm.model_config, 4)
        engine = ServingEngine(llm, SchedulerConfig(
            max_batch_tokens=16, paged=True, block_tokens=4,
            kv_budget_bytes=7 * block_bytes, watermark_fraction=0.0,
        ), tracer=tracer)
        engine.trace_track = "replica-2"
        for prompt in ("Once upon a time", "Lily and Tom went to the park",
                       "The little dog was happy"):
            engine.submit(prompt, SamplingParams(max_tokens=10))
        engine.run(max_steps=3000)
        log = engine.scheduler.preemption_events
        carried = [event for record in records for event in record.preempted]
        assert log and len(carried) == len(log)
        assert all(a is b for a, b in zip(carried, log))
        marks = [s for s in tracer.spans if s.name == spans.PREEMPTED]
        assert len(marks) == len(log)
        for mark, event in zip(marks, log):
            assert mark.start == mark.end == event.time
            assert mark.request_id == event.victim_id
            assert mark.track == "replica-2"
            assert mark.attrs == {
                "victim_priority": event.victim_priority,
                "beneficiary": event.beneficiary_id,
                "beneficiary_priority": event.beneficiary_priority,
            }


def _cycles(engine, label, start, end):
    return Span(label, start, end, attrs={"lane": f"accel:{engine}"}, clock=CYCLES)


def _step(tracer, start, cycle_spans, seconds_per_cycle, track="engine-0"):
    """A step span lasting its cycle spans, referring to them."""
    end = start + max(span.end for span in cycle_spans) * seconds_per_cycle
    tracer.span(spans.STEP, start, end, track=track, n_slots=1,
                **{spans.CYCLE_SPANS: tuple(cycle_spans),
                   spans.SECONDS_PER_CYCLE: seconds_per_cycle})


def _accel_events(payload):
    """The exported accelerator events, with their lane names."""
    events = payload["traceEvents"]
    lanes = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
             if e["name"] == "thread_name"}
    return [(lanes[e["pid"], e["tid"]], e) for e in events
            if e["ph"] != "M" and lanes[e["pid"], e["tid"]].startswith("accel:")]


class TestCycleSpansExport:
    def test_rescales_onto_the_simulated_clock(self):
        tracer = Tracer()
        _step(tracer, 2.0, [_cycles("mpe", "gemm", 100, 300),
                            _cycles("hbm:hbm0", "weights", 0, 50),
                            _cycles("buffer-pool", "flush", 300, 310)],
              1e-3, track="replica-0")
        assert len(tracer) == 1
        payload = build_chrome_trace(tracer)
        (step,) = [e for e in payload["traceEvents"] if e["name"] == spans.STEP]
        assert step["args"] == {"n_slots": 1}
        (mpe, gemm), (hbm, load), (pool, flush) = _accel_events(payload)
        assert gemm["ts"] == (2.0 + 100 * 1e-3) * 1e6
        assert gemm["dur"] == ((2.0 + 300 * 1e-3) - (2.0 + 100 * 1e-3)) * 1e6
        assert gemm["pid"] == step["pid"]
        assert (mpe, gemm["cat"], gemm["args"]) == ("accel:mpe", "work",
                                                    {"category": "work"})
        assert (hbm, load["cat"], load["args"]) == ("accel:hbm:hbm0", "transfer",
                                                    {"category": "transfer"})
        assert (pool, flush["cat"]) == ("accel:buffer-pool", "stall")
        assert payload["otherData"]["n_spans"] == 4
        assert payload["otherData"]["tracks"] == ["replica-0"]

    def test_cycle_spans_are_never_mutated(self):
        # Step results are cached and shared, so the same cycle spans
        # belong to many steps at different offsets.
        cycle_spans = [_cycles("mpe", "gemm", 0, 10)]
        tracer = Tracer()
        _step(tracer, 1.0, cycle_spans, 1e-6)
        _step(tracer, 5.0, cycle_spans, 1e-6)
        events = [e for _, e in _accel_events(build_chrome_trace(tracer))]
        assert cycle_spans == [_cycles("mpe", "gemm", 0, 10)]
        assert sorted(e["ts"] for e in events) == [1.0 * 1e6, 5.0 * 1e6]
