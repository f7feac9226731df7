"""The accelerator design points evaluated in the paper.

Figure 2 of the paper compares the full SpeedLLM design against the
"unoptimized accelerator", the "none parallel tech." variant and the
"none fused" variant.  This module gives those design points the labels
the paper's figures use; the flags behind each key are
:meth:`AcceleratorConfig.variant <repro.accel.config.AcceleratorConfig.variant>`'s,
and the Fig. 2(a) bar order is the default of
:class:`~repro.core.runner.ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["VariantSpec", "PAPER_VARIANTS"]


@dataclass(frozen=True)
class VariantSpec:
    """A named design point with its label as used in the paper's figures."""

    key: str            # internal variant key (AcceleratorConfig.variant name)
    paper_label: str    # label as it appears (or would appear) in the paper
    description: str


PAPER_VARIANTS: Dict[str, VariantSpec] = {
    "full": VariantSpec(
        key="full",
        paper_label="SpeedLLM",
        description="all three optimizations: data-stream pipeline, "
                    "memory reuse, operator fusion",
    ),
    "no-fusion": VariantSpec(
        key="no-fusion",
        paper_label="w/o fusion (none fused)",
        description="pipeline + memory reuse, operators executed unfused",
    ),
    "no-pipeline": VariantSpec(
        key="no-pipeline",
        paper_label="w/o parallel (none parallel tech.)",
        description="memory reuse + fusion, sequential read-compute-write",
    ),
    "no-reuse": VariantSpec(
        key="no-reuse",
        paper_label="w/o memory reuse",
        description="pipeline + fusion, buffers drained batch-wise",
    ),
    "unoptimized": VariantSpec(
        key="unoptimized",
        paper_label="unoptimized accelerator",
        description="sequential execution, no buffer reuse, no fusion",
    ),
}
