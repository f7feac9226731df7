"""Design-space exploration (DSE) over accelerator configurations.

The "co-design" part of the paper's title is the choice of MPE geometry,
on-chip buffering and HBM striping that balances DSP usage against the
streaming bandwidth of the stories-class models.  This module provides a
small, reusable DSE loop:

1. enumerate candidate :class:`~repro.accel.config.AcceleratorConfig`
   points from parameter grids,
2. drop candidates that do not fit the device's resource budget,
3. simulate every candidate that fits cycle-accurately — each step held
   to its analytical cycle bracket, as every simulation is — and rank
   them,
4. report the latency/efficiency Pareto front.

Model config, platform and workload are the
:class:`~repro.core.runner.ExperimentRunner`'s the explorer is built
over (no weights: every candidate is timed from the config alone), and
every candidate that fits is simulated by its
:meth:`~repro.core.runner.ExperimentRunner.simulate`.  The
``examples/design_space_exploration.py`` script is a thin wrapper around
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..quant.config import QuantConfig
from .config import AcceleratorConfig, BufferConfig, MPEConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, core imports accel
    from ..core.runner import ExperimentRunner

__all__ = ["CandidateResult", "DesignSpace", "DesignSpaceExplorer"]


@dataclass(frozen=True)
class DesignSpace:
    """Parameter grids defining the candidate set."""

    mpe_shapes: Tuple[Tuple[int, int], ...] = ((32, 16), (64, 32), (128, 32))
    buffer_segments: Tuple[int, ...] = (4, 8)
    hbm_stripes: Tuple[int, ...] = (8, 16, 32)
    #: Storage precisions (the design point's ``quant``) swept.
    quants: Tuple[QuantConfig, ...] = (QuantConfig.datapath(),)

    def __post_init__(self) -> None:
        if not (self.mpe_shapes and self.buffer_segments
                and self.hbm_stripes and self.quants):
            raise ValueError("every design-space axis needs at least one value")

    def candidates(self) -> Iterable[AcceleratorConfig]:
        """Yield every candidate configuration in the space."""
        for rows, cols in self.mpe_shapes:
            for segments in self.buffer_segments:
                for stripe in self.hbm_stripes:
                    for quant in self.quants:
                        yield AcceleratorConfig(
                            name=f"mpe{rows}x{cols}-seg{segments}-st{stripe}-{quant.label}",
                            mpe=MPEConfig(rows=rows, cols=cols),
                            buffers=BufferConfig(n_segments=segments, segment_kb=128),
                            hbm_stripe=stripe,
                            quant=quant,
                        )

    def __len__(self) -> int:
        return (len(self.mpe_shapes) * len(self.buffer_segments)
                * len(self.hbm_stripes) * len(self.quants))


@dataclass
class CandidateResult:
    """Evaluation outcome of one candidate design."""

    config: AcceleratorConfig
    fits: bool
    dsp_fraction: float = 0.0
    simulated: bool = False
    latency_seconds: float = float("inf")
    tokens_per_second: float = 0.0
    tokens_per_joule: float = 0.0

    def as_row(self) -> Dict[str, object]:
        return {
            "design": self.config.name,
            "fits": self.fits,
            "dsp_fraction": self.dsp_fraction,
            "simulated": self.simulated,
            "latency_ms": (self.latency_seconds * 1e3
                           if self.latency_seconds != float("inf") else None),
            "tokens_per_second": self.tokens_per_second,
            "tokens_per_joule": self.tokens_per_joule,
        }


class DesignSpaceExplorer:
    """Evaluates a :class:`DesignSpace` on one runner's model, platform
    and workload."""

    def __init__(self, runner: "ExperimentRunner") -> None:
        self.runner = runner

    # ------------------------------------------------------------------
    def evaluate(self, config: AcceleratorConfig) -> CandidateResult:
        """Fit check and, for a design that fits, simulation: timing-only,
        so no weight is ever quantised."""
        usage, budget = config.resources(), self.runner.platform.resources
        result = CandidateResult(
            config=config, fits=usage.fits_in(budget),
            dsp_fraction=usage.dsp / budget.dsp if budget.dsp else 0.0)
        if not result.fits:
            return result
        metrics = self.runner.simulate(config)
        result.simulated = True
        result.latency_seconds = metrics.total_seconds
        result.tokens_per_second = metrics.decode_tokens_per_second
        result.tokens_per_joule = metrics.tokens_per_joule
        return result

    def explore(self, space: Optional[DesignSpace] = None) -> List[CandidateResult]:
        """Evaluate every candidate in ``space`` (the default space if None)."""
        return [self.evaluate(config) for config in (space or DesignSpace()).candidates()]

    # ------------------------------------------------------------------
    def best(self, results: Sequence[CandidateResult],
             objective: str = "latency") -> CandidateResult:
        """Pick the best simulated candidate by ``objective``."""
        evaluated = [r for r in results if r.simulated]
        if not evaluated:
            raise ValueError("no candidate was simulated")
        if objective == "latency":
            return min(evaluated, key=lambda r: r.latency_seconds)
        if objective == "efficiency":
            return max(evaluated, key=lambda r: r.tokens_per_joule)
        raise ValueError("objective must be 'latency' or 'efficiency'")
