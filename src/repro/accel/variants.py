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
    """A named design point: its optimization flags and its label as used
    in the paper's figures."""

    key: str            # internal variant key (AcceleratorConfig.variant name)
    paper_label: str    # label as it appears (or would appear) in the paper
    description: str
    pipeline: bool
    memory_reuse: bool
    operator_fusion: bool


PAPER_VARIANTS: Dict[str, VariantSpec] = {
    "full": VariantSpec(
        key="full",
        paper_label="SpeedLLM",
        description="all three optimizations: data-stream pipeline, "
                    "memory reuse, operator fusion",
        pipeline=True, memory_reuse=True, operator_fusion=True,
    ),
    "no-fusion": VariantSpec(
        key="no-fusion",
        paper_label="w/o fusion (none fused)",
        description="pipeline + memory reuse, operators executed unfused",
        pipeline=True, memory_reuse=True, operator_fusion=False,
    ),
    "no-pipeline": VariantSpec(
        key="no-pipeline",
        paper_label="w/o parallel (none parallel tech.)",
        description="memory reuse + fusion, sequential read-compute-write",
        pipeline=False, memory_reuse=True, operator_fusion=True,
    ),
    "no-reuse": VariantSpec(
        key="no-reuse",
        paper_label="w/o memory reuse",
        description="pipeline + fusion, buffers drained batch-wise",
        pipeline=True, memory_reuse=False, operator_fusion=True,
    ),
    "unoptimized": VariantSpec(
        key="unoptimized",
        paper_label="unoptimized accelerator",
        description="sequential execution, no buffer reuse, no fusion",
        pipeline=False, memory_reuse=False, operator_fusion=False,
    ),
}
