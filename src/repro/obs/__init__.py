"""Unified observability: lifecycle tracing, metrics, timeline export.

Three pieces, one span type:

* :mod:`repro.obs.tracer` — request-lifecycle spans (queued → prefill →
  decode → preempted/handoff → finished) on the simulated clock, with
  zero overhead when disabled; emitted by the scheduler, engine, router
  and handoff path.  The same :class:`Span`, tagged with the ``cycles``
  clock, is what the accelerator records per step.
* :mod:`repro.obs.registry` — live counters/gauges/histograms with
  Prometheus text exposition, sampled every engine step.
* :mod:`repro.obs.timeline` — Perfetto-loadable Chrome trace-event
  export of request spans and, under each step, the step's accelerator
  cycle spans (converted to simulated seconds there and nowhere else),
  plus validation/reconciliation against the serving report.
"""

from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .timeline import (TRACE_SCHEMA, build_chrome_trace, reconcile_spans,
                       validate_chrome_trace, write_chrome_trace)
from .tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "build_chrome_trace",
    "reconcile_spans",
    "validate_chrome_trace",
    "write_chrome_trace",
]
