"""Execution tracing for simulated runs.

The trace records one interval per unit of work (instruction, transfer,
stall) with its engine, start and end cycle.  From the trace we derive the
per-engine busy time, utilisation and overlap statistics that the
experiment reports include, and it doubles as a debugging aid (the text
rendering is a poor man's Gantt chart).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    """An append-only list of :class:`TraceEvent` with analysis helpers."""

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

    # ------------------------------------------------------------------
    def engines(self) -> List[str]:
        """Engine names appearing in the trace, in first-seen order."""
        seen: List[str] = []
        for ev in self.events:
            if ev.engine not in seen:
                seen.append(ev.engine)
        return seen

    def busy_cycles(self, engine: str, category: Optional[str] = "work") -> int:
        """Total cycles ``engine`` spent on intervals of ``category``.

        Pass ``category=None`` to count every recorded interval.  Intervals
        are summed directly; the accelerator model never records
        overlapping work on the same engine.
        """
        return sum(
            ev.duration for ev in self.events
            if ev.engine == engine and (category is None or ev.category == category)
        )

    def span(self) -> int:
        """Cycles between the earliest start and the latest end."""
        if not self.events:
            return 0
        return max(ev.end for ev in self.events) - min(ev.start for ev in self.events)

    def utilization(self, engine: str, total_cycles: Optional[int] = None) -> float:
        """Fraction of the run ``engine`` was busy with work intervals."""
        total = total_cycles if total_cycles is not None else self.span()
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_cycles(engine) / total)

    def utilizations(self, total_cycles: Optional[int] = None) -> Dict[str, float]:
        """Utilisation of every engine in the trace."""
        return {e: self.utilization(e, total_cycles) for e in self.engines()}

    # ------------------------------------------------------------------
    def merge(self, other: "Trace", offset: int = 0) -> None:
        """Append ``other``'s events, shifting them by ``offset`` cycles."""
        for ev in other.events:
            self.events.append(TraceEvent(
                engine=ev.engine, label=ev.label,
                start=ev.start + offset, end=ev.end + offset,
                category=ev.category,
            ))

    def to_chrome_trace(self, cycle_ns: float = 1.0) -> List[Dict[str, object]]:
        """Convert the trace to Chrome ``chrome://tracing`` events.

        Each interval becomes a complete ("X") event; engines map to
        thread names so the loader/MPE/SFU/HBM channels appear as separate
        rows in the viewer.  ``cycle_ns`` scales cycles to the viewer's
        microsecond timestamps (1 ns per cycle by default, i.e. timestamps
        are cycles/1000 µs).
        """
        if cycle_ns <= 0:
            raise ValueError("cycle_ns must be positive")
        events: List[Dict[str, object]] = []
        for tid, engine in enumerate(self.engines()):
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": engine},
            })
        tids = {engine: tid for tid, engine in enumerate(self.engines())}
        for ev in self.events:
            events.append({
                "name": ev.label,
                "cat": ev.category,
                "ph": "X",
                "pid": 0,
                "tid": tids[ev.engine],
                "ts": ev.start * cycle_ns / 1000.0,
                "dur": max(ev.duration, 1) * cycle_ns / 1000.0,
            })
        return events

    def render(self, max_events: int = 40) -> str:
        """Human-readable dump of the first ``max_events`` intervals."""
        lines = [f"{'engine':<12} {'start':>10} {'end':>10} {'cycles':>8}  label"]
        for ev in self.events[:max_events]:
            lines.append(
                f"{ev.engine:<12} {ev.start:>10} {ev.end:>10} {ev.duration:>8}  {ev.label}"
            )
        if len(self.events) > max_events:
            lines.append(f"... ({len(self.events) - max_events} more events)")
        return "\n".join(lines)
