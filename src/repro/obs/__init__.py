"""Unified observability: lifecycle tracing, metrics, timeline export.

Three pieces, one span type:

* :mod:`repro.obs.tracer` — request-lifecycle spans (queued → prefill →
  decode → preempted/handoff → finished) on the simulated clock:
  :func:`trace_step`'s view of each engine step's record, plus the
  cluster's routing and handoff spans.  The same :class:`Span`, tagged
  with the ``cycles`` clock, is what the accelerator records per step.
* :mod:`repro.obs.registry` — live counters/gauges/histograms with
  Prometheus text exposition, :func:`count_step`'s view of the record.
* :mod:`repro.obs.timeline` — Perfetto-loadable Chrome trace-event
  export of request spans and, under each step, the step's accelerator
  cycle spans (converted to simulated seconds there and nowhere else),
  plus validation/reconciliation against the serving report.
"""

from .registry import Counter, Gauge, Histogram, MetricsRegistry, count_step
from .timeline import (TRACE_SCHEMA, build_chrome_trace, reconcile_spans,
                       validate_chrome_trace, write_chrome_trace)
from .tracer import NULL_TRACER, Span, Tracer, trace_step

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
    "count_step",
    "reconcile_spans",
    "trace_step",
    "validate_chrome_trace",
    "write_chrome_trace",
]
