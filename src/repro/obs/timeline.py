"""Chrome trace-event export of a traced serving run.

Converts the :class:`~repro.obs.tracer.Tracer`'s simulated-clock spans
into the Chrome trace-event JSON format (the ``{"traceEvents": [...]}``
flavour), loadable by Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``:

* one *process* (pid) per track — an engine, or a cluster replica;
* one *thread* (tid) per request within its track, so a request's
  queued/prefill/decode spans stack on one lane; engine-level step spans
  and rescaled accelerator cycle intervals get their own lanes;
* ``"X"`` complete events for spans, ``"i"`` instant events for tokens,
  preemptions and routing decisions; timestamps are microseconds of
  *simulated* time.

The export embeds an ``otherData`` section (ignored by viewers) carrying
the schema tag, the run bounds, and — when a report is supplied — each
request's reported TTFT/ITL and the report's step totals.  That makes a
trace file self-validating: :func:`validate_chrome_trace` checks
structural invariants (every event inside the run bounds, stage spans
nested in their request's root span, token indices contiguous) *and*
reconciles span-derived latencies — and, when a metrics snapshot is
embedded too, the registry's counters — against the embedded report,
which is what the ``trace-smoke`` CI job gates on.

:func:`reconcile_spans` is the exact-arithmetic twin used by the
property tests: it recomputes TTFT/ITL from raw tracer spans (no
microsecond rounding), where equality with
:class:`~repro.serve.metrics.RequestMetrics` is bit-for-bit.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from .registry import STEP_COUNTERS
from .tracer import (REQUEST, REQUEST_INSTANTS, STAGE_SPANS, TOKEN, Span,
                     Tracer)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.metrics import ServeReport
    from .registry import MetricsRegistry

__all__ = [
    "TRACE_SCHEMA",
    "build_chrome_trace",
    "reconcile_spans",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: Schema tag of the ``otherData`` payload; bump on breaking changes.
TRACE_SCHEMA = "SPEEDLLM_TRACE_v1"

_US = 1e6  # seconds -> microseconds (trace-event timestamps)

#: Relative slack for comparisons on microsecond-rounded JSON values.
_REL_TOL = 1e-9
_ABS_TOL = 1e-9

#: Registry counter → the embedded report total its sum over tracks must
#: equal (both are views of the engines' per-step totals).
_RECONCILED = {
    "speedllm_requests_finished_total": "n_requests",
    **{name: field for name, (field, _) in STEP_COUNTERS.items()},
}


def _lane(span: Span) -> str:
    """Thread label of a span within its track."""
    if span.request_id is not None:
        return span.request_id
    lane = span.attrs.get("lane")
    return str(lane) if lane is not None else "engine"


def reconcile_spans(spans: Iterable[Span]) -> Dict[str, Dict[str, object]]:
    """Per-request latencies recomputed purely from spans (exact floats).

    For every request with a root ``request`` span: TTFT is the first
    ``token`` instant minus the root start (arrival), ITL the gaps
    between consecutive ``token`` instants in commit order.  Because the
    tracer records the same clock floats the engine stores in
    ``Request.token_times``, these equal the reported
    :class:`~repro.serve.metrics.RequestMetrics` values exactly.
    """
    roots: Dict[str, Span] = {}
    tokens: Dict[str, List[Span]] = {}
    for span in spans:
        if span.request_id is None:
            continue
        if span.name == REQUEST:
            if span.request_id in roots:
                raise ValueError(
                    f"request {span.request_id!r} has multiple root spans")
            roots[span.request_id] = span
        elif span.name == TOKEN:
            tokens.setdefault(span.request_id, []).append(span)
    out: Dict[str, Dict[str, object]] = {}
    for request_id, root in roots.items():
        marks = sorted(tokens.get(request_id, ()),
                       key=lambda s: s.attrs.get("index", 0))
        out[request_id] = {
            "arrival_s": root.start,
            "finish_s": root.end,
            "latency_s": root.end - root.start,
            "ttft_s": (marks[0].start - root.start) if marks else None,
            "itl_s": [b.start - a.start for a, b in zip(marks, marks[1:])],
            "n_tokens": len(marks),
            "finish_reason": root.attrs.get("finish_reason"),
        }
    return out


def build_chrome_trace(
    tracer: Tracer,
    report: Optional["ServeReport"] = None,
    registry: Optional["MetricsRegistry"] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the Perfetto-loadable trace-event payload.

    ``report`` (a :class:`~repro.serve.metrics.ServeReport`; a cluster's
    pooled one) embeds each request's *reported* TTFT/ITL and the step
    totals in ``otherData`` so the file carries its own reconciliation
    targets; ``registry`` embeds a snapshot of the metrics; ``meta`` adds
    free-form run context (config, seed).
    """
    events: List[Dict[str, object]] = []
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    for track in tracer.tracks():
        pid = len(pids) + 1
        pids[track] = pid
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": track}})
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_sort_index",
                       "args": {"sort_index": pid}})
    for span in tracer.spans:
        pid = pids[span.track]
        lane = _lane(span)
        key = (span.track, lane)
        tid = tids.get(key)
        if tid is None:
            tid = len(tids) + 1
            tids[key] = tid
            events.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_name", "args": {"name": lane}})
            events.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_sort_index",
                           "args": {"sort_index": tid}})
        args: Dict[str, object] = {
            k: v for k, v in span.attrs.items() if k != "lane"}
        if span.request_id is not None:
            args["request_id"] = span.request_id
        category = str(span.attrs.get(
            "category",
            "request" if span.request_id is not None else "engine"))
        event: Dict[str, object] = {
            "name": span.name,
            "cat": category,
            "pid": pid,
            "tid": tid,
            "ts": span.start * _US,
            "args": args,
        }
        if span.is_instant:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = span.duration * _US
        events.append(event)

    start, end = tracer.bounds()
    other: Dict[str, object] = {
        "schema": TRACE_SCHEMA,
        "clock": "simulated-seconds",
        "start_seconds": start,
        "makespan_seconds": end,
        "n_spans": len(tracer.spans),
        "tracks": tracer.tracks(),
    }
    if report is not None:
        other["requests"] = {
            r.request_id: {
                "ttft_s": r.time_to_first_token_s,
                "itl_s": list(r.inter_token_latencies_s),
                "latency_s": r.latency_s,
                "n_tokens": r.n_generated,
                "finish_reason": r.finish_reason,
            }
            for r in report.requests
        }
        other["makespan_seconds"] = max(end, report.makespan_seconds)
        other["report"] = {
            field: getattr(report, field) for field in _RECONCILED.values()}
    if registry is not None:
        other["metrics"] = registry.as_dict()
    if meta:
        other["meta"] = dict(meta)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


def validate_chrome_trace(payload: Dict[str, object]) -> List[str]:
    """Structural + reconciliation checks; returns problems (empty = ok).

    Checks, in order: schema tag; every event inside the run bounds;
    exactly one root ``request`` span per request, with every stage span
    and request instant nested inside it; token indices contiguous and
    timestamps non-decreasing; and — when the payload embeds a report —
    span-derived TTFT and ITL equal to the reported values (within
    microsecond-rounding tolerance) and, when it embeds a metrics
    snapshot as well, each registry counter summed over tracks equal to
    the report total it is a view of.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    other = payload.get("otherData") or {}
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    if other.get("schema") != TRACE_SCHEMA:
        problems.append(
            f"schema is {other.get('schema')!r}, expected {TRACE_SCHEMA!r}")
    makespan_us = float(other.get("makespan_seconds", 0.0)) * _US
    start_us = float(other.get("start_seconds", 0.0)) * _US
    slack = max(_ABS_TOL * _US, makespan_us * _REL_TOL)

    roots: Dict[str, Dict[str, object]] = {}
    children: Dict[str, List[Dict[str, object]]] = {}
    tokens: Dict[str, List[Dict[str, object]]] = {}
    for event in events:
        if event.get("ph") == "M":
            continue
        name = event.get("name")
        ts = float(event["ts"])
        end = ts + float(event.get("dur", 0.0))
        if ts < start_us - slack or end > makespan_us + slack:
            problems.append(
                f"event {name!r} at [{ts / _US:.9f}, {end / _US:.9f}]s is "
                f"outside the run bounds [{start_us / _US:.9f}, "
                f"{makespan_us / _US:.9f}]s")
        request_id = (event.get("args") or {}).get("request_id")
        if request_id is None:
            continue
        if name == REQUEST:
            if request_id in roots:
                problems.append(
                    f"request {request_id!r} has multiple root spans")
            roots[request_id] = event
        elif name in STAGE_SPANS or name in REQUEST_INSTANTS:
            children.setdefault(request_id, []).append(event)
            if name == TOKEN:
                tokens.setdefault(request_id, []).append(event)

    for request_id, kids in children.items():
        root = roots.get(request_id)
        if root is None:
            problems.append(
                f"request {request_id!r} has stage events but no root span")
            continue
        lo = float(root["ts"])
        hi = lo + float(root.get("dur", 0.0))
        for event in kids:
            ts = float(event["ts"])
            end = ts + float(event.get("dur", 0.0))
            if ts < lo - slack or end > hi + slack:
                problems.append(
                    f"{event['name']!r} of request {request_id!r} at "
                    f"[{ts / _US:.9f}, {end / _US:.9f}]s escapes its root "
                    f"span [{lo / _US:.9f}, {hi / _US:.9f}]s")

    for request_id, marks in tokens.items():
        marks.sort(key=lambda e: e["args"].get("index", 0))
        indices = [e["args"].get("index") for e in marks]
        if indices != list(range(len(marks))):
            problems.append(
                f"request {request_id!r} token indices are {indices}, "
                "expected a contiguous 0-based run")
        times = [float(e["ts"]) for e in marks]
        if any(b < a for a, b in zip(times, times[1:])):
            problems.append(
                f"request {request_id!r} token timestamps go backwards")

    reported = other.get("requests")
    if isinstance(reported, dict):
        for request_id, expect in reported.items():
            root = roots.get(request_id)
            marks = tokens.get(request_id, [])
            if root is None:
                problems.append(
                    f"reported request {request_id!r} has no root span")
                continue
            if expect.get("n_tokens") != len(marks):
                problems.append(
                    f"request {request_id!r} has {len(marks)} token events "
                    f"but the report says {expect.get('n_tokens')}")
                continue
            if marks:
                ttft = (float(marks[0]["ts"]) - float(root["ts"])) / _US
                if not _close(ttft, float(expect["ttft_s"])):
                    problems.append(
                        f"request {request_id!r} span-derived TTFT "
                        f"{ttft!r} != reported {expect['ttft_s']!r}")
                times = [float(e["ts"]) / _US for e in marks]
                gaps = [b - a for a, b in zip(times, times[1:])]
                want = [float(g) for g in expect.get("itl_s", [])]
                if len(gaps) != len(want) or not all(
                        _close(a, b) for a, b in zip(gaps, want)):
                    problems.append(
                        f"request {request_id!r} span-derived ITL "
                        "differs from the reported gaps")

    totals = other.get("report")
    metrics = other.get("metrics")
    if isinstance(totals, dict) and isinstance(metrics, dict):
        for name, field in _RECONCILED.items():
            counted = sum(metrics.get(name, {}).get("samples", {}).values())
            if counted != totals[field]:
                problems.append(
                    f"registry {name} sums to {counted} over tracks but "
                    f"the report's {field} is {totals[field]}")
    return problems
