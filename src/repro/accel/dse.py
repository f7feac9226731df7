"""Design-space exploration (DSE) over accelerator configurations.

The "co-design" part of the paper's title is the choice of MPE geometry,
on-chip buffering and HBM striping that balances DSP usage against the
streaming bandwidth of the stories-class models.  This module provides a
small, reusable DSE loop:

1. enumerate candidate :class:`~repro.accel.config.AcceleratorConfig`
   points from parameter grids,
2. drop candidates that do not fit the device's resource budget,
3. cheaply prune with the analytical latency model,
4. simulate the survivors cycle-accurately and rank them,
5. report the latency/efficiency Pareto front.

Checkpoint, platform and workload are the
:class:`~repro.core.runner.ExperimentRunner`'s the explorer is built
over, and every survivor is simulated by its
:meth:`~repro.core.runner.ExperimentRunner.simulate`.  The
``examples/design_space_exploration.py`` script is a thin wrapper around
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..compile.pipeline import StepCompiler
from ..quant.config import QuantConfig
from .analytical import AnalyticalModel
from .config import AcceleratorConfig, BufferConfig, MPEConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, core imports accel
    from ..core.runner import ExperimentRunner

__all__ = ["CandidateResult", "DesignSpace", "DesignSpaceExplorer", "pareto_front"]


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
    analytical_lower_cycles: int = 0
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


def pareto_front(results: Sequence[CandidateResult]) -> List[CandidateResult]:
    """Non-dominated set over (latency minimised, tokens/J maximised)."""
    evaluated = [r for r in results if r.simulated]
    front: List[CandidateResult] = []
    for candidate in evaluated:
        dominated = any(
            other is not candidate
            and other.latency_seconds <= candidate.latency_seconds
            and other.tokens_per_joule >= candidate.tokens_per_joule
            and (other.latency_seconds < candidate.latency_seconds
                 or other.tokens_per_joule > candidate.tokens_per_joule)
            for other in evaluated
        )
        if not dominated:
            front.append(candidate)
    front.sort(key=lambda r: r.latency_seconds)
    return front


class DesignSpaceExplorer:
    """Evaluates a :class:`DesignSpace` on one runner's model, platform
    and workload."""

    def __init__(self, runner: "ExperimentRunner") -> None:
        self.runner = runner

    # ------------------------------------------------------------------
    def _lower_bound(self, config: AcceleratorConfig) -> int:
        """Analytical overlapped-cycle bound of the deepest decode step."""
        runner = self.runner
        workload, model_config = runner.config, runner.model_config
        context = min(workload.n_prompt + workload.n_generated - 1,
                      model_config.max_seq_len - 1)
        program = StepCompiler(
            model_config, config, runner.platform).lower(context)
        return AnalyticalModel(config, runner.platform).estimate(
            program).overlapped_cycles

    def evaluate(
        self,
        config: AcceleratorConfig,
        prune_above: Optional[float] = None,
    ) -> CandidateResult:
        """Fit-check, analytical estimate and simulation of one candidate.

        The bound needs the design's lowered program only, so a candidate
        whose bound exceeds ``prune_above`` is returned unsimulated;
        a simulated one is timing-only, so no weight is ever quantised.
        """
        usage, budget = config.resources(), self.runner.platform.resources
        result = CandidateResult(
            config=config, fits=usage.fits_in(budget),
            dsp_fraction=usage.dsp / budget.dsp if budget.dsp else 0.0)
        if not result.fits:
            return result
        result.analytical_lower_cycles = self._lower_bound(config)
        if (prune_above is not None
                and result.analytical_lower_cycles > prune_above):
            return result
        metrics = self.runner.simulate(config)
        result.simulated = True
        result.latency_seconds = metrics.total_seconds
        result.tokens_per_second = metrics.decode_tokens_per_second
        result.tokens_per_joule = metrics.tokens_per_joule
        return result

    def explore(
        self,
        space: Optional[DesignSpace] = None,
        prune_factor: Optional[float] = None,
    ) -> List[CandidateResult]:
        """Evaluate every candidate in ``space``.

        ``prune_factor`` optionally skips the (expensive) simulation of
        candidates whose analytical lower bound is already ``prune_factor``
        times worse than the best lower bound seen so far; their rows keep
        ``simulated=False``.
        """
        space = space or DesignSpace()
        results: List[CandidateResult] = []
        best_lower: Optional[int] = None
        for config in space.candidates():
            prune = prune_factor is not None and best_lower is not None
            result = self.evaluate(
                config, prune_factor * best_lower if prune else None)
            if result.simulated:
                lower = result.analytical_lower_cycles
                best_lower = lower if best_lower is None else min(best_lower, lower)
            results.append(result)
        return results

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
