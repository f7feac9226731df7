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

The :class:`Tracer` is designed to cost nothing when disabled: every
emit method returns immediately on ``enabled=False``, and the hot paths
in the engine guard whole span-assembly blocks behind a single
``tracer.enabled`` attribute check.  :data:`NULL_TRACER` is the shared
disabled instance every component defaults to, so tracing support adds
one attribute load per step to an untraced run.

Span taxonomy (one track per engine/replica; see
``docs/ARCHITECTURE.md`` for the full schema):

========== ======== =====================================================
name       kind     interval
========== ======== =====================================================
request    span     arrival → finish (the root; every other event of the
                    request nests inside it)
queued     span     arrival (or preemption) → admission
prefill    span     one per step that ran prompt positions of the request
decode     span     one per step that ran a decode turn of the request
handoff    span     prefill-replica finish → KV delivered at the decode
                    replica (disaggregated clusters only)
step       span     one per batched accelerator step (engine lane)
token      instant  a token committed (``ts`` = its ``token_times`` entry)
preempted  instant  a victim evicted for a beneficiary
routed     instant  the cluster router pinned a request to a replica
========== ======== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

__all__ = [
    "CYCLES",
    "CYCLE_SPANS",
    "NULL_TRACER",
    "SECONDS_PER_CYCLE",
    "SIM_S",
    "Span",
    "Tracer",
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
    """Collects lifecycle spans; free when disabled.

    Every emit method early-returns on ``enabled=False``; callers with
    non-trivial attribute assembly should additionally guard the whole
    block behind ``if tracer.enabled:`` so a disabled run never builds
    the attribute dictionaries either.
    """

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

    def instant(
        self,
        name: str,
        ts: float,
        *,
        request_id: Optional[str] = None,
        track: str = "engine-0",
        **attrs: object,
    ) -> None:
        """Record one zero-duration marker; no-op when disabled."""
        self.span(name, ts, ts, request_id=request_id, track=track, **attrs)

    def preemption(self, event, *, track: str = "engine-0") -> None:
        """Record a scheduler :class:`~repro.serve.scheduler.PreemptionEvent`.

        The instant is built *from the audit-log object itself*, so the
        scheduler's ``preemption_events`` log and the trace cannot drift
        apart — they are two views of one record.
        """
        if not self.enabled:
            return
        self.instant(
            PREEMPTED, event.time,
            request_id=event.victim_id, track=track,
            victim_priority=event.victim_priority,
            beneficiary=event.beneficiary_id,
            beneficiary_priority=event.beneficiary_priority,
        )

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
