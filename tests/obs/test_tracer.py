"""Unit tests for the span tracer (repro.obs.tracer)."""

from __future__ import annotations

import pytest

from repro.obs import tracer as spans
from repro.obs.tracer import NULL_TRACER, Span, Tracer
from repro.serve.scheduler import PreemptionEvent
from repro.sim.trace import Trace


class TestSpan:
    def test_duration_and_instant(self):
        span = Span("prefill", 1.0, 3.5)
        assert span.duration == 2.5
        assert not span.is_instant
        assert Span("token", 2.0, 2.0).is_instant

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError, match="ends .* before it starts"):
            Span("decode", 5.0, 4.0)

    def test_defaults(self):
        span = Span("step", 0.0, 1.0)
        assert span.request_id is None
        assert span.track == "engine-0"
        assert dict(span.attrs) == {}


class TestDisabledTracer:
    def test_every_emit_is_a_noop(self):
        tracer = Tracer(enabled=False)
        tracer.span("prefill", 0.0, 1.0, request_id="r0")
        tracer.instant("token", 0.5, request_id="r0", index=0)
        tracer.preemption(PreemptionEvent("v", 1, "b", 0, time=0.2))
        cycles = Trace()
        cycles.record("mpe", "gemm", 0, 10)
        tracer.merge_cycle_trace(cycles, offset_seconds=0.0,
                                 seconds_per_cycle=1e-9)
        assert len(tracer) == 0
        assert tracer.bounds() == (0.0, 0.0)

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
        assert tracer.bounds() == (0.0, 4.0)

    def test_attrs_are_captured(self):
        tracer = self._tracer()
        (root,) = [s for s in tracer.spans
                   if s.request_id == "r0" and s.name == spans.REQUEST]
        assert root.attrs["finish_reason"] == "length"
        (step,) = [s for s in tracer.spans if s.name == spans.STEP]
        assert step.attrs["n_slots"] == 4
        assert step.request_id is None

    def test_preemption_mirrors_the_audit_event(self):
        tracer = Tracer()
        event = PreemptionEvent("victim", 3, "urgent", 0, time=1.25)
        tracer.preemption(event, track="replica-2")
        (mark,) = tracer.spans
        assert mark.name == spans.PREEMPTED
        assert mark.is_instant and mark.start == 1.25
        assert mark.request_id == "victim"
        assert mark.track == "replica-2"
        assert mark.attrs["victim_priority"] == 3
        assert mark.attrs["beneficiary"] == "urgent"
        assert mark.attrs["beneficiary_priority"] == 0


class TestMergeCycleTrace:
    def test_rescales_onto_the_simulated_clock(self):
        cycles = Trace()
        cycles.record("mpe", "gemm", 100, 300)
        cycles.record("load", "weights", 0, 50, category="transfer")
        tracer = Tracer()
        tracer.merge_cycle_trace(cycles, offset_seconds=2.0,
                                 seconds_per_cycle=1e-3, track="replica-0")
        gemm = next(s for s in tracer.spans if s.name == "gemm")
        assert gemm.start == pytest.approx(2.0 + 100 * 1e-3)
        assert gemm.end == pytest.approx(2.0 + 300 * 1e-3)
        assert gemm.track == "replica-0"
        assert gemm.attrs["lane"] == "accel:mpe"
        assert gemm.attrs["category"] == "work"
        load = next(s for s in tracer.spans if s.name == "weights")
        assert load.attrs == {"lane": "accel:load", "category": "transfer"}

    def test_source_trace_is_never_mutated(self):
        # Step results are cached and shared, so the same Trace object is
        # merged many times at different offsets.
        cycles = Trace()
        cycles.record("mpe", "gemm", 0, 10)
        tracer = Tracer()
        tracer.merge_cycle_trace(cycles, offset_seconds=1.0,
                                 seconds_per_cycle=1e-6)
        tracer.merge_cycle_trace(cycles, offset_seconds=5.0,
                                 seconds_per_cycle=1e-6)
        assert len(cycles) == 1
        assert cycles.events[0].start == 0
        starts = sorted(s.start for s in tracer.spans)
        assert starts == [1.0, 5.0]
