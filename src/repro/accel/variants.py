"""The accelerator design points evaluated in the paper.

Figure 2 of the paper compares the full SpeedLLM design against the
"unoptimized accelerator", the "none parallel tech." variant and the
"none fused" variant.  This module names those design points, maps them to
:class:`~repro.accel.config.AcceleratorConfig` objects, and provides the
bar orderings used by the benchmark harness so the generated tables follow
the figure layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .config import AcceleratorConfig

__all__ = [
    "VariantSpec",
    "PAPER_VARIANTS",
    "FIG2A_VARIANTS",
    "FIG2B_VARIANTS",
    "ABLATION_VARIANTS",
    "variant_config",
    "variant_specs",
]


@dataclass(frozen=True)
class VariantSpec:
    """A named design point with its label as used in the paper's figures."""

    key: str            # internal variant key (AcceleratorConfig.variant name)
    paper_label: str    # label as it appears (or would appear) in the paper
    description: str

    def config(self, **overrides) -> AcceleratorConfig:
        """Instantiate the accelerator configuration for this variant."""
        return AcceleratorConfig.variant(self.key, **overrides)


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

#: Bars of Fig. 2(a): normalized latency of the optimization ladder.
FIG2A_VARIANTS: List[str] = [
    "unoptimized", "no-pipeline", "no-reuse", "no-fusion", "full",
]

#: Bars of Fig. 2(b): effective energy of the designs named in §3.2.2.
FIG2B_VARIANTS: List[str] = ["unoptimized", "no-pipeline", "no-fusion", "full"]

#: Single-optimization design points for the ablation benches.
ABLATION_VARIANTS: List[str] = [
    "unoptimized", "pipeline-only", "reuse-only", "fusion-only", "full",
]


def variant_config(name: str, **overrides) -> AcceleratorConfig:
    """Accelerator configuration for a paper variant or raw variant key."""
    return AcceleratorConfig.variant(name, **overrides)


def variant_specs(names: Sequence[str]) -> List[VariantSpec]:
    """Resolve a list of variant names to their specs (raw keys allowed)."""
    specs: List[VariantSpec] = []
    for name in names:
        if name in PAPER_VARIANTS:
            specs.append(PAPER_VARIANTS[name])
        else:
            specs.append(VariantSpec(key=name, paper_label=name, description=name))
    return specs
