"""Result records and metric helpers shared by the experiment harness.

The benchmarks produce one :class:`VariantResult` per accelerator design
point; this module provides the normalisation helpers that turn those
records into the rows the paper's figures report (normalized latency,
effective energy, throughput) plus small statistics utilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

import numpy as np

from ..accel.accelerator import GenerationMetrics

__all__ = [
    "VariantResult",
    "merge_sum",
    "normalized_latency",
    "normalized_energy_efficiency",
    "speedup",
    "percentile",
    "LatencySummary",
]


def merge_sum(mappings: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise sum of numeric mappings.

    The one counter-merging helper every aggregation layer shares:
    pooling per-phase compile seconds across replica reports, summing
    energy-breakdown fields, totalling routing-decision counters.  Keys
    appear in first-seen order; missing keys count as zero.
    """
    merged: Dict[str, float] = {}
    for mapping in mappings:
        for key, value in mapping.items():
            merged[key] = merged.get(key, 0) + value
    return merged


@dataclass
class VariantResult:
    """Measured outcome of one accelerator variant on one workload."""

    variant: str
    paper_label: str
    workload: str
    metrics: GenerationMetrics
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def latency_seconds(self) -> float:
        """End-to-end inference latency (the paper's latency metric)."""
        return self.metrics.total_seconds

    @property
    def decode_tokens_per_second(self) -> float:
        return self.metrics.decode_tokens_per_second

    @property
    def tokens_per_joule(self) -> float:
        return self.metrics.tokens_per_joule

    @property
    def average_power_w(self) -> float:
        return self.metrics.average_power_w

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for table rendering / JSON export."""
        return {
            "variant": self.variant,
            "label": self.paper_label,
            "workload": self.workload,
            "latency_ms": self.latency_seconds * 1e3,
            "decode_tokens_per_second": self.decode_tokens_per_second,
            "tokens_per_joule": self.tokens_per_joule,
            "average_power_w": self.average_power_w,
            "total_cycles": self.metrics.total_cycles,
            "hbm_gbytes": self.metrics.counters.hbm_bytes / 1e9,
            **self.extra,
        }


def _by_variant(results: Sequence[VariantResult]) -> Dict[str, VariantResult]:
    out: Dict[str, VariantResult] = {}
    for result in results:
        if result.variant in out:
            raise ValueError(f"duplicate variant {result.variant!r} in results")
        out[result.variant] = result
    return out


def speedup(results: Sequence[VariantResult], baseline: str, target: str) -> float:
    """Latency ratio ``baseline / target`` (how much faster ``target`` is)."""
    table = _by_variant(results)
    if table[target].latency_seconds <= 0:
        return 0.0
    return table[baseline].latency_seconds / table[target].latency_seconds


def normalized_latency(
    results: Sequence[VariantResult],
    baseline: str = "unoptimized",
) -> Dict[str, float]:
    """Latency of each variant normalised to ``baseline`` (baseline = 1.0).

    This is the quantity plotted in the paper's Fig. 2(a).
    """
    table = _by_variant(results)
    if baseline not in table:
        raise KeyError(f"baseline variant {baseline!r} not in results")
    base = table[baseline].latency_seconds
    if base <= 0:
        raise ValueError("baseline latency must be positive")
    return {name: r.latency_seconds / base for name, r in table.items()}


def normalized_energy_efficiency(
    results: Sequence[VariantResult],
    baseline: str = "unoptimized",
) -> Dict[str, float]:
    """Tokens/J of each variant relative to ``baseline`` (Fig. 2(b))."""
    table = _by_variant(results)
    if baseline not in table:
        raise KeyError(f"baseline variant {baseline!r} not in results")
    base = table[baseline].tokens_per_joule
    if base <= 0:
        raise ValueError("baseline energy efficiency must be positive")
    return {name: r.tokens_per_joule / base for name, r in table.items()}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) with linear interpolation.

    This is the metric the serving layer reports as p50/p95 latency
    (``numpy.percentile`` with input validation suited to the small
    per-request populations involved).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    values = list(values)
    if not values:
        raise ValueError("percentile of an empty sequence")
    return float(np.percentile(values, q))


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of a latency-like population (seconds)."""

    n: int
    mean: float
    p50: float
    p95: float
    max: float
    p99: float = 0.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        values = list(values)
        if not values:
            raise ValueError("cannot summarise an empty population")
        return cls(
            n=len(values),
            mean=sum(values) / len(values),
            p50=percentile(values, 50.0),
            p95=percentile(values, 95.0),
            p99=percentile(values, 99.0),
            max=float(max(values)),
        )

    def as_dict(self) -> Dict[str, float]:
        return {"n": self.n, "mean": self.mean, "p50": self.p50,
                "p95": self.p95, "p99": self.p99, "max": self.max}
