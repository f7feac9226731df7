"""Live metrics registry with Prometheus-style text exposition.

The serving stack accumulates plenty of end-of-run aggregates
(:class:`~repro.serve.metrics.ServeReport`); what it lacked was *live*
instrumentation — the queue depth, KV utilisation and batch occupancy a
production operator watches on a dashboard.  :class:`MetricsRegistry`
provides the three standard instrument kinds:

* :class:`Counter` — monotonically increasing totals (steps, tokens,
  preemptions, finished requests by reason);
* :class:`Gauge` — point-in-time samples (queue depth, running requests,
  KV utilisation, cache hit rates);
* :class:`Histogram` — bucketed distributions (token positions per
  batched step, i.e. batch occupancy).

Instruments are addressed by ``(name, labels)`` exactly like Prometheus
children: ``registry.counter("speedllm_steps_total", labels={"track":
"replica-0"})`` returns the same child on every call, so per-step
sampling hooks need no instrument caching.  :meth:`MetricsRegistry.render`
emits the standard text exposition format (``# HELP`` / ``# TYPE`` +
sample lines), loadable by any Prometheus scraper or pushgateway.

Naming convention (see ``docs/ARCHITECTURE.md``): every metric is
prefixed ``speedllm_``, counters end in ``_total``, and time-unit
suffixes are explicit (``_seconds``).  Labels identify the engine lane
(``track``) and, where relevant, a breakdown key (``reason``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "STEP_COUNTERS"]

#: Counters that are the registry view of a
#: :class:`~repro.serve.metrics.StepTotals` field, ``series: (field,
#: help)``: fed per step, so a series summed over tracks equals the
#: report's total (:func:`~repro.obs.timeline.validate_chrome_trace`).
STEP_COUNTERS = {
    "speedllm_steps_total": (
        "n_steps", "Batched accelerator steps executed."),
    "speedllm_slot_tokens_total": (
        "total_slots", "Token positions executed across all steps."),
    "speedllm_preemptions_total": (
        "n_preemptions", "Running requests evicted to free KV blocks."),
}

#: Default histogram buckets: powers of two, sized for per-step token
#: counts (the one distribution the engine samples every step).
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> None:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")


def _label_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _render_labels(key: Tuple[Tuple[str, str], ...],
                   extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = key + extra
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket distribution (Prometheus histogram semantics)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be distinct and increasing")
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows, ``+Inf`` last."""
        rows: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            rows.append((bound, running))
        rows.append((float("inf"), self.count))
        return rows


class _Family:
    """One metric name: its type, help text, and labelled children."""

    __slots__ = ("name", "kind", "help", "children", "buckets")

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[Tuple[Tuple[str, str], ...], object] = {}
        self.buckets = buckets

    def child(self, key: Tuple[Tuple[str, str], ...]):
        instrument = self.children.get(key)
        if instrument is None:
            if self.kind == "counter":
                instrument = Counter()
            elif self.kind == "gauge":
                instrument = Gauge()
            else:
                instrument = Histogram(self.buckets or DEFAULT_BUCKETS)
            self.children[key] = instrument
        return instrument


class MetricsRegistry:
    """Named instrument families with text exposition."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str,
                buckets: Optional[Sequence[float]] = None) -> _Family:
        family = self._families.get(name)
        if family is None:
            _check_name(name)
            family = _Family(name, kind, help_text, buckets=buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}")
        return family

    def counter(self, name: str, help_text: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._family(name, "counter", help_text).child(
            _label_key(labels))

    def gauge(self, name: str, help_text: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._family(name, "gauge", help_text).child(
            _label_key(labels))

    def histogram(self, name: str, help_text: str = "",
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._family(name, "histogram", help_text,
                            buckets=buckets).child(_label_key(labels))

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._families)

    def render(self) -> str:
        """Prometheus text exposition of every instrument."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                instrument = family.children[key]
                if family.kind == "histogram":
                    for bound, count in instrument.cumulative():
                        le = (("le", _format_value(bound)),)
                        lines.append(
                            f"{name}_bucket{_render_labels(key, le)} {count}")
                    lines.append(
                        f"{name}_sum{_render_labels(key)} "
                        f"{_format_value(instrument.sum)}")
                    lines.append(
                        f"{name}_count{_render_labels(key)} "
                        f"{instrument.count}")
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} "
                        f"{_format_value(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Nested plain-dict view (JSON-friendly, for tests and payloads)."""
        out: Dict[str, Dict[str, object]] = {}
        for name, family in self._families.items():
            children: Dict[str, object] = {}
            for key, instrument in family.children.items():
                label = _render_labels(key) or "{}"
                if family.kind == "histogram":
                    children[label] = {
                        "sum": instrument.sum,
                        "count": instrument.count,
                        "buckets": {
                            _format_value(bound): count
                            for bound, count in instrument.cumulative()
                        },
                    }
                else:
                    children[label] = instrument.value
            out[name] = {"type": family.kind, "help": family.help,
                         "samples": children}
        return out
