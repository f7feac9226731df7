"""The accelerator design points evaluated in the paper.

Figure 2 of the paper compares the full SpeedLLM design against the
"unoptimized accelerator", the "none parallel tech." variant and the
"none fused" variant.  This module is the one table of those design
points: each key's three optimization flags, which
:meth:`AcceleratorConfig.variant <repro.accel.config.AcceleratorConfig.variant>`
builds, and the label the paper's figures use.  The Fig. 2(a) bar order
is the default of :class:`~repro.core.runner.ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["VariantSpec", "PAPER_VARIANTS"]


@dataclass(frozen=True)
class VariantSpec:
    """A design point's optimization flags and its label as used in the
    paper's figures."""

    paper_label: str    # label as it appears (or would appear) in the paper
    pipeline: bool
    memory_reuse: bool
    operator_fusion: bool


PAPER_VARIANTS: Dict[str, VariantSpec] = {
    # all three optimizations: data-stream pipeline, memory reuse,
    # operator fusion
    "full": VariantSpec(
        paper_label="SpeedLLM",
        pipeline=True, memory_reuse=True, operator_fusion=True,
    ),
    # pipeline + memory reuse, operators executed unfused
    "no-fusion": VariantSpec(
        paper_label="w/o fusion (none fused)",
        pipeline=True, memory_reuse=True, operator_fusion=False,
    ),
    # memory reuse + fusion, sequential read-compute-write
    "no-pipeline": VariantSpec(
        paper_label="w/o parallel (none parallel tech.)",
        pipeline=False, memory_reuse=True, operator_fusion=True,
    ),
    # pipeline + fusion, buffers drained batch-wise
    "no-reuse": VariantSpec(
        paper_label="w/o memory reuse",
        pipeline=True, memory_reuse=False, operator_fusion=True,
    ),
    # sequential execution, no buffer reuse, no fusion
    "unoptimized": VariantSpec(
        paper_label="unoptimized accelerator",
        pipeline=False, memory_reuse=False, operator_fusion=False,
    ),
}
