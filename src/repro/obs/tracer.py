"""Request-lifecycle span tracing on the simulated clock.

A :class:`Span` is one named interval of a request's journey through the
serving stack — queued, prefill, decode, handoff — or a zero-duration
instant event (a committed token, a preemption, a routing decision).
Its ``clock`` tag says what its timestamps count:

* ``sim_s`` (every span the :class:`Tracer` emits) — *simulated* seconds
  on the engine clock, the same clock
  :class:`~repro.serve.metrics.RequestMetrics` reports latencies on,
  which is what makes the trace a correctness audit and not just a
  viewer: TTFT and ITL recomputed purely from spans must equal the
  reported values (the property tests pin this, bit-exact);
* ``cycles`` — accelerator cycles from the start of one step, recorded
  by :class:`~repro.accel.pipeline.PipelineExecutor` into the step's
  cached result.  The tracer never holds these: a ``step`` span refers
  to its step's cycle spans (``attrs["cycle_spans"]``, with
  ``attrs["seconds_per_cycle"]``), and only the timeline export places
  them on the simulated clock.

A serving engine emits nothing while it steps: each
:meth:`~repro.serve.ServingEngine.step` (and each ``cancel``) builds
one :class:`~repro.serve.metrics.StepRecord`, and :func:`trace_step`
turns it into spans once the step is done — returning at once on a
disabled tracer.  :data:`NULL_TRACER` is the shared disabled instance
every component defaults to.

The span taxonomy — the names below, one track per engine or replica —
is tabled in ``docs/ARCHITECTURE.md`` (§Observability).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.metrics import StepRecord
    from ..serve.request import Request

__all__ = [
    "CYCLES",
    "CYCLE_SPANS",
    "NULL_TRACER",
    "SECONDS_PER_CYCLE",
    "SIM_S",
    "Span",
    "Tracer",
    "trace_step",
    "DECODE",
    "HANDOFF",
    "PREEMPTED",
    "PREFILL",
    "QUEUED",
    "REQUEST",
    "ROUTED",
    "STEP",
    "TOKEN",
]

# Span / event names.  Stage spans are intervals nested inside the
# request's root span; instants are zero-duration markers.
REQUEST = "request"
QUEUED = "queued"
PREFILL = "prefill"
DECODE = "decode"
HANDOFF = "handoff"
STEP = "step"
TOKEN = "token"
PREEMPTED = "preempted"
ROUTED = "routed"

#: Span clocks: simulated seconds, and accelerator cycles from a step's start.
SIM_S = "sim_s"
CYCLES = "cycles"

#: Attributes of a ``step`` span that place its cycle spans on the
#: simulated clock: the spans, and the seconds one cycle lasts.
CYCLE_SPANS = "cycle_spans"
SECONDS_PER_CYCLE = "seconds_per_cycle"

#: Stage spans that must nest inside their request's root span.
STAGE_SPANS = frozenset({QUEUED, PREFILL, DECODE, HANDOFF})
#: Instant events that must fall inside their request's root span.
REQUEST_INSTANTS = frozenset({TOKEN, PREEMPTED, ROUTED})


@dataclass(frozen=True)
class Span:
    """One named interval (or instant, when ``start == end``)."""

    name: str
    start: float
    end: float
    #: Request the span belongs to; None for engine-level spans (step
    #: intervals, accelerator cycle intervals).
    request_id: Optional[str] = None
    #: Engine/replica lane the span renders on (one track per engine).
    track: str = "engine-0"
    #: Structured context: tier, KV blocks, prefix hits, spec acceptance,
    #: compile cache deltas — whatever the emitting site knows.
    attrs: Mapping[str, object] = field(default_factory=dict)
    #: What ``start`` and ``end`` count: :data:`SIM_S` or :data:`CYCLES`.
    clock: str = SIM_S

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"span {self.name!r} ends ({self.end}) before it starts "
                f"({self.start})")
        if self.start < 0 and self.clock == CYCLES:
            raise ValueError(
                f"cycle span {self.name!r} starts at cycle {self.start}, "
                "before its step")


class Tracer:
    """Collects lifecycle spans; every emit method early-returns on
    ``enabled=False``."""

    __slots__ = ("enabled", "spans")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        request_id: Optional[str] = None,
        track: str = "engine-0",
        **attrs: object,
    ) -> None:
        """Record one interval; no-op when disabled."""
        if not self.enabled:
            return
        self.spans.append(Span(
            name=name, start=start, end=end,
            request_id=request_id, track=track, attrs=attrs,
        ))

    def instant(self, name: str, ts: float, **keywords: object) -> None:
        """Record one zero-duration marker (``span``'s keywords); no-op
        when disabled."""
        self.span(name, ts, ts, **keywords)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def tracks(self) -> List[str]:
        """Distinct tracks in first-emission order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            if span.track not in seen:
                seen[span.track] = None
        return list(seen)


#: Shared disabled tracer; the default everywhere tracing is optional.
NULL_TRACER = Tracer(enabled=False)


def _trace_root(tracer: Tracer, request: "Request", end: float,
                track: str) -> None:
    """A request's root span: arrival → ``end``, lifetime attributes."""
    tracer.span(
        REQUEST, request.arrival_time, end,
        request_id=request.request_id, track=track,
        finish_reason=request.finish_reason, priority=request.priority,
        n_generated=request.n_generated,
        n_preemptions=request.n_preemptions,
        prefix_hit_tokens=request.prefix_hit_tokens,
        draft_tokens_proposed=request.draft_tokens_proposed,
        draft_tokens_accepted=request.draft_tokens_accepted)


def trace_step(tracer: Tracer, record: "StepRecord") -> None:
    """Emit a step record's spans: ``queued`` per admission, ``preempted``
    per eviction (from the audit-log object itself, so log and trace
    cannot drift apart), each scheduled request's ``token`` instants and
    root span if it retired into the report (or was cancelled), then its
    stage span, then the ``step`` span referring to the cycle spans."""
    if not tracer.enabled:
        return
    track = record.track
    for admission in record.admitted:
        request, requeued = admission.request, admission.requeued_at
        tracer.span(
            QUEUED, request.arrival_time if requeued is None else requeued,
            request.admitted_time, request_id=request.request_id,
            track=track, readmitted=requeued is not None,
            priority=request.priority,
            prefix_hit_tokens=request.prefix_hit_tokens)
    for event in record.preempted:
        tracer.instant(
            PREEMPTED, event.time, request_id=event.victim_id, track=track,
            victim_priority=event.victim_priority,
            beneficiary=event.beneficiary_id,
            beneficiary_priority=event.beneficiary_priority)
    for entry in record.requests:
        # Stamped with the clock the engine appended to token_times, so
        # span-derived TTFT/ITL equal the reported metrics exactly.
        for index in range(entry.first_index,
                           entry.first_index + len(entry.tokens)):
            tracer.instant(TOKEN, record.end, track=track, index=index,
                           request_id=entry.request.request_id)
        if entry.reported:
            _trace_root(tracer, entry.request, entry.request.finish_time,
                        track)
    for request in record.cancelled:
        _trace_root(tracer, request, max(record.end, request.arrival_time),
                    track)
    for entry in record.requests:
        request = entry.request
        attrs = {"pos": entry.start_pos, "n_slots": entry.n_slots,
                 "priority": request.priority}
        if entry.kv_blocks is not None:
            attrs["kv_blocks"] = entry.kv_blocks
        if entry.phase == PREFILL:
            attrs["prefix_hit_tokens"] = request.prefix_hit_tokens
        elif entry.drafted:
            attrs["draft_tokens"] = entry.drafted
            attrs["draft_accepted"] = entry.accepted
        tracer.span(entry.phase, record.start, record.end,
                    request_id=request.request_id, track=track, **attrs)
    totals = record.totals
    if totals is None:
        return
    accel = {} if record.cycle_spans is None else {
        CYCLE_SPANS: record.cycle_spans,
        SECONDS_PER_CYCLE: record.seconds_per_cycle}
    tracer.span(
        STEP, record.start, record.end, track=track,
        n_slots=totals.total_slots, n_running=record.n_running,
        kv_utilization=totals.kv_utilization_sum,
        compile_cache_hits=totals.compile_cache_hits,
        compile_cache_misses=totals.compile_cache_misses, **accel)
