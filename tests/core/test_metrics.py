"""Tests for repro.core.metrics."""

from __future__ import annotations

import pytest

from repro.accel.accelerator import GenerationMetrics
from repro.core.metrics import (
    VariantResult,
    normalized_energy_efficiency,
    normalized_latency,
    speedup,
)
from repro.fpga.power import EnergyBreakdown
from repro.sim.stats import RunCounters


def _metrics(total_cycles: int, energy_j: float, n_generated: int = 32) -> GenerationMetrics:
    prefill = total_cycles // 5
    return GenerationMetrics(
        variant="x", n_prompt=4, n_generated=n_generated,
        prefill_cycles=prefill, decode_cycles=total_cycles - prefill,
        prefill_seconds=prefill / 225e6,
        decode_seconds=(total_cycles - prefill) / 225e6,
        counters=RunCounters(), energy=EnergyBreakdown(static_j=energy_j),
    )


def _result(variant: str, cycles: int, energy_j: float) -> VariantResult:
    return VariantResult(variant=variant, paper_label=variant, workload="w",
                         metrics=_metrics(cycles, energy_j))


@pytest.fixture
def results():
    return [
        _result("unoptimized", 480_000, 4.0),
        _result("no-pipeline", 300_000, 3.0),
        _result("full", 100_000, 1.0),
    ]


class TestVariantResult:
    def test_properties(self, results):
        r = results[-1]
        assert r.latency_seconds == pytest.approx(100_000 / 225e6)
        assert r.decode_tokens_per_second > 0
        assert r.tokens_per_joule == pytest.approx(32 / 1.0)
        row = r.as_row()
        assert row["variant"] == "full"
        assert row["latency_ms"] == pytest.approx(r.latency_seconds * 1e3)


class TestNormalization:
    def test_normalized_latency_baseline_is_one(self, results):
        norm = normalized_latency(results, baseline="unoptimized")
        assert norm["unoptimized"] == pytest.approx(1.0)
        assert norm["full"] == pytest.approx(100_000 / 480_000)

    def test_normalized_energy_efficiency(self, results):
        norm = normalized_energy_efficiency(results, baseline="unoptimized")
        assert norm["unoptimized"] == pytest.approx(1.0)
        assert norm["full"] == pytest.approx(4.0)  # 4x fewer joules, same tokens

    def test_speedup(self, results):
        assert speedup(results, "unoptimized", "full") == pytest.approx(4.8)

    def test_missing_baseline_rejected(self, results):
        with pytest.raises(KeyError):
            normalized_latency(results, baseline="nonexistent")

    def test_duplicate_variant_rejected(self, results):
        with pytest.raises(ValueError, match="duplicate"):
            normalized_latency(results + [results[0]])
