"""Execution tracing for simulated runs.

The trace records one interval per unit of work (instruction, transfer,
stall) with its engine, start and end cycle.  It is a recorder only:
the timeline export is :mod:`repro.obs.timeline`'s, which rescales the
intervals onto the serving clock through
:meth:`repro.obs.Tracer.merge_cycle_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One half-open interval ``[start, end)`` of activity on an engine."""

    engine: str
    label: str
    start: int
    end: int
    category: str = "work"

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(
                f"invalid trace interval [{self.start}, {self.end}) for {self.label!r}"
            )

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Trace:
    """An append-only list of :class:`TraceEvent`."""

    events: List[TraceEvent] = field(default_factory=list)
    enabled: bool = True

    def record(self, engine: str, label: str, start: int, end: int,
               category: str = "work") -> None:
        """Append one interval (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(engine=engine, label=label,
                                       start=start, end=end, category=category))

    def __len__(self) -> int:
        return len(self.events)
