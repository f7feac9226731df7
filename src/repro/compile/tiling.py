"""Tiling plans: how matmul work is split into packets.

The fixed tiling the compiler historically used — one weight tile per
``mpe.rows`` output rows — is the ``fold=1`` point of a small plan
space: ``matmul_fold`` folds ``fold`` consecutive row blocks into one
weight tile.  The MPE processes a folded tile as ``fold`` passes over
the reduction without draining the systolic array between them, so the
fill/drain latency is paid once per tile instead of once per row block;
the price is a ``fold`` times larger weight slice that must fit one
on-chip staging segment (the compiler clamps per-operator).  The fold
is **plan-constant** — never derived from a step's shape — so every
program compiled under one plan has identical packet counts per
operator, which the batch merger and speculative verify-run fusion
require.

:func:`candidate_plans` enumerates the bounded search space the
autotuner scores: powers of two above the fixed tiling, pruned by
on-chip buffer capacity.  The default plan reproduces the historical
compiler output bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..accel.config import AcceleratorConfig
from ..llama.config import LlamaConfig

__all__ = ["TilingPlan", "DEFAULT_PLAN", "candidate_plans", "clamped_fold"]


@dataclass(frozen=True, order=True)
class TilingPlan:
    """One point of the tiling search space."""

    #: Row blocks (of ``mpe.rows`` each) folded into one weight tile.
    matmul_fold: int = 1

    def __post_init__(self) -> None:
        if self.matmul_fold < 1:
            raise ValueError("matmul_fold must be >= 1")

    @property
    def label(self) -> str:
        return f"fold{self.matmul_fold}"


#: The fixed tiling: one row block per weight tile.
DEFAULT_PLAN = TilingPlan()


def clamped_fold(
    plan: TilingPlan,
    in_features: int,
    mpe_rows: int,
    wbytes_per_el: float,
    segment_bytes: int,
) -> int:
    """The plan's fold clamped so one tile's weights fit a staging segment.

    Folding is only applied while the folded weight slice fits one
    on-chip buffer segment; an operator whose *unfolded* tile already
    exceeds the segment (huge reductions) keeps ``fold=1``, i.e. the
    historical tiling — capacity never gets worse than the fixed plan.
    """
    fold = plan.matmul_fold
    while fold > 1 and fold * mpe_rows * in_features * wbytes_per_el \
            > segment_bytes:
        fold //= 2
    return fold


def candidate_plans(
    config: AcceleratorConfig,
    model_config: LlamaConfig,
    max_fold: int = 8,
) -> List[TilingPlan]:
    """Bounded heuristic search space above the fixed tiling.

    Folds are powers of two; a fold is admitted only if at least one of
    the model's matmul reduction widths fits the folded tile in one
    staging segment (otherwise :func:`clamped_fold` would reduce it to a
    smaller candidate anyway).  The default plan is always first.
    """
    rows = config.mpe.rows
    # An ordinary weight's width; the compiler clamps per operator.
    wb = config.quant.bytes_per_element(config.quant.weights)
    segment = config.buffers.segment_bytes
    reductions = {
        model_config.dim,
        model_config.resolved_hidden_dim(),
        model_config.dim // model_config.n_heads,
    }
    plans = [DEFAULT_PLAN]
    fold = 2
    while fold <= max_fold:
        if any(fold * rows * r * wb <= segment for r in reductions):
            plans.append(TilingPlan(matmul_fold=fold))
        fold *= 2
    return plans
