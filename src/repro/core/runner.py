"""Experiment runner: evaluate accelerator design points on a common workload.

This is the layer the ``speedllm bench`` CLI subcommand, the perf
harness and design-space exploration drive.  A runner holds a model
checkpoint, a platform and a workload (prompt length + decode length);
:meth:`ExperimentRunner.simulate` is the one place a design point is
simulated — it builds a
:class:`~repro.accel.accelerator.SpeedLLMAccelerator` for an
:class:`~repro.accel.config.AcceleratorConfig` over the shared
checkpoint and simulates that workload.  The paper's named variants go
through it (:meth:`~ExperimentRunner.run_variant`, returning
:class:`~repro.core.metrics.VariantResult` records and the normalised
tables the figures show: Fig. 2a normalized latency, Fig. 2b relative
energy efficiency, the headline speedup), and so does every candidate of
a :class:`~repro.accel.dse.DesignSpaceExplorer`.

The runner evaluates *timing only* (``simulate_generation``), which is
why it is cheap enough to sweep every variant: no tokens are decoded.
Functional correctness is covered separately by
:mod:`repro.core.validation`, and multi-request serving throughput by
:class:`repro.serve.ServingEngine` via ``speedllm serve-bench`` — see
``docs/ARCHITECTURE.md`` for how the three fit together.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..accel.accelerator import GenerationMetrics, SpeedLLMAccelerator
from ..accel.config import AcceleratorConfig
from ..accel.variants import PAPER_VARIANTS
from ..fpga.power import EnergyModelConfig
from ..fpga.u280 import FpgaPlatform, u280
from ..llama.checkpoint import Checkpoint, synthesize_weights
from ..llama.config import LlamaConfig, preset
from .metrics import (
    VariantResult,
    normalized_energy_efficiency,
    normalized_latency,
    speedup,
)

__all__ = ["ExperimentConfig", "ExperimentRunner"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Workload and evaluation settings shared by every variant."""

    model: str = "stories15M"
    variants: Sequence[str] = ("unoptimized", "no-pipeline", "no-reuse",
                               "no-fusion", "full")
    n_prompt: int = 8
    n_generated: int = 64
    position_stride: int = 16
    seed: int = 0
    energy_accounting: str = "effective"   # "effective" (Fig. 2b) or "board"
    clock_mhz: float = 225.0
    accel_overrides: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_prompt <= 0 or self.n_generated < 0:
            raise ValueError("n_prompt must be positive and n_generated >= 0")
        if self.position_stride <= 0:
            raise ValueError("position_stride must be positive")
        if self.energy_accounting not in ("effective", "board"):
            raise ValueError("energy_accounting must be 'effective' or 'board'")
        if not self.variants:
            raise ValueError("at least one variant is required")

    @property
    def workload_name(self) -> str:
        return f"{self.model}:p{self.n_prompt}+g{self.n_generated}"


class ExperimentRunner:
    """Runs a set of accelerator variants on one workload."""

    def __init__(
        self,
        config: ExperimentConfig,
        checkpoint: Optional[Checkpoint] = None,
        platform: Optional[FpgaPlatform] = None,
    ) -> None:
        self.config = config
        self.model_config: LlamaConfig = (
            checkpoint.config if checkpoint is not None else preset(config.model)
        )
        self.checkpoint = checkpoint or synthesize_weights(
            self.model_config, seed=config.seed
        )
        if platform is None:
            platform = u280(clock_mhz=config.clock_mhz)
            if config.energy_accounting == "effective":
                platform = dataclasses.replace(
                    platform, energy_config=EnergyModelConfig.effective()
                )
        self.platform = platform
        self._results: Dict[str, VariantResult] = {}

    # ------------------------------------------------------------------
    def simulate(self, accel_config: AcceleratorConfig) -> GenerationMetrics:
        """Build ``accel_config`` over the shared checkpoint and platform
        and simulate the configured workload (timing only)."""
        accel = SpeedLLMAccelerator(
            self.checkpoint, accel_config, platform=self.platform)
        return accel.simulate_generation(
            n_prompt=self.config.n_prompt,
            n_generated=self.config.n_generated,
            position_stride=self.config.position_stride,
        )

    def run_variant(self, variant: str) -> VariantResult:
        """Simulate one variant on the configured workload (cached)."""
        if variant not in self._results:
            metrics = self.simulate(AcceleratorConfig.variant(
                variant, **self.config.accel_overrides))
            spec = PAPER_VARIANTS.get(variant)
            self._results[variant] = VariantResult(
                variant=variant,
                paper_label=spec.paper_label if spec else variant,
                workload=self.config.workload_name,
                metrics=metrics,
            )
        return self._results[variant]

    def run_all(self) -> List[VariantResult]:
        """Simulate every configured variant."""
        return [self.run_variant(v) for v in self.config.variants]

    # ------------------------------------------------------------------
    # Figure-shaped views
    # ------------------------------------------------------------------
    def fig2a_normalized_latency(self, baseline: str = "unoptimized") -> Dict[str, float]:
        """Normalized latency per variant (the paper's Fig. 2a series)."""
        return normalized_latency(self.run_all(), baseline=baseline)

    def fig2b_energy_efficiency(self, baseline: str = "unoptimized") -> Dict[str, float]:
        """Relative energy efficiency per variant (the paper's Fig. 2b series)."""
        return normalized_energy_efficiency(self.run_all(), baseline=baseline)

    def headline_speedup(self, baseline: str = "unoptimized", target: str = "full") -> float:
        """The paper's headline 'up to 4.8x' latency speedup."""
        self.run_all()
        return speedup(list(self._results.values()), baseline=baseline, target=target)

    def result_rows(self) -> List[Dict[str, object]]:
        """Flat result rows for table rendering."""
        return [r.as_row() for r in self.run_all()]
