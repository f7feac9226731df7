"""Explicit compilation pipeline for the SpeedLLM timing model.

The package structures step compilation as named, composable phases
(``build → shard → fuse → tile → schedule``) fronted by a shape-bucketed
compile cache and an optional tile autotuner:

* :mod:`repro.compile.phase`    — the :class:`Phase` abstraction with
  per-phase timing, memoization and skip accounting;
* :mod:`repro.compile.tiling`   — :class:`TilingPlan` and the bounded
  candidate space the autotuner searches;
* :mod:`repro.compile.cache`    — the :class:`CompileCache` keyed by
  compile signature plus bucketed step composition;
* :mod:`repro.compile.autotune` — the :class:`TileAutotuner` scoring
  candidate plans with the cycle-accurate executor;
* :mod:`repro.compile.pipeline` — the :class:`StepCompiler` that drives
  all of it; the accelerator and every execution backend hold one and
  call it directly.
"""

from .phase import Phase, PhasePipeline, PhaseStats
from .tiling import DEFAULT_PLAN, TilingPlan, candidate_plans, clamped_fold
from .cache import CompileCache, ShapeBucketSpec, compile_signature
from .autotune import AutotuneOutcome, TileAutotuner
# pipeline imports accel modules whose compiler module imports
# repro.compile.tiling; keep it last so the package namespace above is
# complete when that circular edge resolves.
from .pipeline import PHASE_ORDER, CompiledStep, CompileWork, StepCompiler

__all__ = [
    "Phase",
    "PhasePipeline",
    "PhaseStats",
    "TilingPlan",
    "DEFAULT_PLAN",
    "candidate_plans",
    "clamped_fold",
    "ShapeBucketSpec",
    "CompileCache",
    "compile_signature",
    "TileAutotuner",
    "AutotuneOutcome",
    "PHASE_ORDER",
    "CompileWork",
    "CompiledStep",
    "StepCompiler",
]
