"""The serving timeline's accelerator intervals as the tracer once copied
them — now the oracle of the timeline export.

Until the executor recorded cycle-clock :class:`~repro.obs.tracer.Span`
objects, each traced step handed the engine a cycle-level trace, and
``Tracer.merge_cycle_trace`` rescaled every interval of it onto the
simulated clock and appended the copy to the tracer, right after the
step's span.  :func:`merged` replays that on a finished tracer: each
``step`` span that refers to cycle spans is followed by their rescaled
copies (the merge's body, verbatim), and loses the two attributes that
referred to them.  ``build_chrome_trace`` of the result is the payload
the copying tracer wrote.
"""

from __future__ import annotations

from dataclasses import replace

from repro.obs.tracer import CYCLE_SPANS, SECONDS_PER_CYCLE, Span, Tracer

__all__ = ["merged"]


def merged(tracer: Tracer) -> Tracer:
    """A new tracer holding ``tracer``'s spans with every step's cycle
    spans copied in, rescaled, after it."""
    copy = Tracer()
    for span in tracer.spans:
        cycle_spans = span.attrs.get(CYCLE_SPANS)
        if cycle_spans is None:
            copy.spans.append(span)
            continue
        attrs = {key: value for key, value in span.attrs.items()
                 if key not in (CYCLE_SPANS, SECONDS_PER_CYCLE)}
        copy.spans.append(replace(span, attrs=attrs))
        _merge_cycle_trace(copy, [_recorded(cycle_span) for cycle_span in cycle_spans],
                           offset_seconds=span.start,
                           seconds_per_cycle=span.attrs[SECONDS_PER_CYCLE],
                           track=span.track)
    return copy


def _recorded(span: Span):
    """``(engine, label, start, end, category)`` as the executor recorded
    the interval: its computes as work, its HBM stripes as transfers and
    its pool flushes as stalls."""
    engine = span.attrs["lane"].removeprefix("accel:")
    category = ("transfer" if engine.startswith("hbm:")
                else "stall" if engine == "buffer-pool" else "work")
    return engine, span.name, span.start, span.end, category


def _merge_cycle_trace(tracer: Tracer, events, *, offset_seconds: float,
                       seconds_per_cycle: float, track: str) -> None:
    for engine, label, start, end, category in events:
        tracer.spans.append(Span(
            name=label,
            start=offset_seconds + start * seconds_per_cycle,
            end=offset_seconds + end * seconds_per_cycle,
            request_id=None,
            track=track,
            attrs={"lane": f"accel:{engine}",
                   "category": category},
        ))
