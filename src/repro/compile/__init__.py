"""Step compilation for the SpeedLLM timing model.

One :class:`StepCompiler` per timing view lowers decode steps through
``build → fuse → tile → schedule``, keeping one plain memo per unit that
repeats (a slot's graph, a slot's tile program, a whole step):

* :mod:`repro.compile.tiling`   — :class:`TilingPlan` and the bounded
  candidate space autotuning searches;
* :mod:`repro.compile.cache`    — the LRU :class:`CompileCache` of whole
  steps, keyed by bucketed step composition;
* :mod:`repro.compile.pipeline` — the :class:`StepCompiler`; the
  accelerator and every execution backend hold one and call it directly.
"""

from .tiling import DEFAULT_PLAN, TilingPlan, candidate_plans, clamped_fold
from .cache import CompileCache
# pipeline imports accel modules whose compiler module imports
# repro.compile.tiling; keep it last so the package namespace above is
# complete when that circular edge resolves.
from .pipeline import PHASE_ORDER, CompiledStep, CompileWork, StepCompiler

__all__ = [
    "TilingPlan",
    "DEFAULT_PLAN",
    "candidate_plans",
    "clamped_fold",
    "CompileCache",
    "PHASE_ORDER",
    "CompileWork",
    "CompiledStep",
    "StepCompiler",
]
