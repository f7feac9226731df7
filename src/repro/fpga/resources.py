"""FPGA resource inventory and utilisation accounting.

The Alveo U280 exposes a fixed budget of LUTs, flip-flops, DSP slices,
BRAM and URAM blocks spread over three super-logic regions (SLRs).  A
design's footprint (its compute arrays, buffers and controller) is
checked against this budget: the fit report tells us whether a
configuration is realisable.  Power is not derived from it; the energy
model charges activity counters (:mod:`repro.fpga.power`).

Numbers for the U280 come from the public Xilinx data sheet
(XCU280 / UltraScale+ HBM device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["ResourceVector", "UtilizationReport", "ResourceError"]


class ResourceError(ValueError):
    """Raised when a design does not fit in the available resources."""


@dataclass(frozen=True)
class ResourceVector:
    """A bundle of FPGA resource counts.

    All fields are counts of physical primitives: ``bram_36k`` counts 36 Kb
    block RAMs, ``uram`` counts 288 Kb UltraRAM blocks.
    """

    lut: int = 0
    ff: int = 0
    dsp: int = 0
    bram_36k: int = 0
    uram: int = 0

    def __post_init__(self) -> None:
        for name in ("lut", "ff", "dsp", "bram_36k", "uram"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            dsp=self.dsp + other.dsp,
            bram_36k=self.bram_36k + other.bram_36k,
            uram=self.uram + other.uram,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            lut=self.lut - other.lut,
            ff=self.ff - other.ff,
            dsp=self.dsp - other.dsp,
            bram_36k=self.bram_36k - other.bram_36k,
            uram=self.uram - other.uram,
        )

    def fits_in(self, budget: "ResourceVector") -> bool:
        """True if every component is within ``budget``."""
        return (
            self.lut <= budget.lut
            and self.ff <= budget.ff
            and self.dsp <= budget.dsp
            and self.bram_36k <= budget.bram_36k
            and self.uram <= budget.uram
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "lut": self.lut,
            "ff": self.ff,
            "dsp": self.dsp,
            "bram_36k": self.bram_36k,
            "uram": self.uram,
        }

    # -- capacity helpers ----------------------------------------------
    @property
    def bram_bytes(self) -> int:
        """On-chip storage provided by the BRAMs (36 Kb each)."""
        return self.bram_36k * (36 * 1024 // 8)

    @property
    def uram_bytes(self) -> int:
        """On-chip storage provided by the URAMs (288 Kb each)."""
        return self.uram * (288 * 1024 // 8)

    @property
    def onchip_bytes(self) -> int:
        """Total on-chip SRAM capacity in bytes."""
        return self.bram_bytes + self.uram_bytes


@dataclass(frozen=True)
class UtilizationReport:
    """Fraction of each resource class consumed by the design."""

    total: ResourceVector
    used: ResourceVector

    def fraction(self, resource: str) -> float:
        """Utilisation fraction of one resource class (0..1)."""
        total = getattr(self.total, resource)
        if total == 0:
            return 0.0
        return getattr(self.used, resource) / total

    def as_table(self) -> List[str]:
        """Render the report as fixed-width text lines."""
        lines = [f"{'resource':<10} {'used':>12} {'total':>12} {'util':>8}"]
        for name in ("lut", "ff", "dsp", "bram_36k", "uram"):
            lines.append(
                f"{name:<10} {getattr(self.used, name):>12,} "
                f"{getattr(self.total, name):>12,} {self.fraction(name):>7.1%}"
            )
        return lines
