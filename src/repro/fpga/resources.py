"""FPGA resource inventory and utilisation accounting.

The Alveo U280 exposes a fixed budget of LUTs, flip-flops, DSP slices,
BRAM and URAM blocks spread over three super-logic regions (SLRs).  The
accelerator's compute arrays and on-chip buffers are "placed" against this
budget: the fit report tells us whether a configuration is realisable and
its utilisation drives the dynamic power model.

Numbers for the U280 come from the public Xilinx data sheet
(XCU280 / UltraScale+ HBM device).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

__all__ = ["ResourceVector", "ResourceBudget", "UtilizationReport", "ResourceError"]


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

    def scaled(self, factor: int) -> "ResourceVector":
        """Return ``factor`` copies of this vector (integer replication)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return ResourceVector(
            lut=self.lut * factor,
            ff=self.ff * factor,
            dsp=self.dsp * factor,
            bram_36k=self.bram_36k * factor,
            uram=self.uram * factor,
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


@dataclass
class ResourceBudget:
    """Total device budget plus a running tally of allocations by name."""

    total: ResourceVector
    allocations: Dict[str, ResourceVector] = field(default_factory=dict)

    def allocate(self, name: str, request: ResourceVector) -> None:
        """Reserve ``request`` under ``name``.

        Raises
        ------
        ResourceError
            If the allocation would exceed the device budget.
        """
        if name in self.allocations:
            raise ResourceError(f"allocation {name!r} already exists")
        new_used = self.used + request
        if not new_used.fits_in(self.total):
            raise ResourceError(
                f"allocation {name!r} ({request.as_dict()}) exceeds the device "
                f"budget; used {self.used.as_dict()} of {self.total.as_dict()}"
            )
        self.allocations[name] = request

    def release(self, name: str) -> None:
        """Release a previously made allocation."""
        if name not in self.allocations:
            raise ResourceError(f"no allocation named {name!r}")
        del self.allocations[name]

    @property
    def used(self) -> ResourceVector:
        used = ResourceVector()
        for vec in self.allocations.values():
            used = used + vec
        return used

    def utilization(self) -> "UtilizationReport":
        """Produce the utilisation report of the current allocations."""
        return UtilizationReport(total=self.total, used=self.used,
                                 by_block=dict(self.allocations))


@dataclass(frozen=True)
class UtilizationReport:
    """Fraction of each resource class consumed by the design."""

    total: ResourceVector
    used: ResourceVector
    by_block: Mapping[str, ResourceVector] = field(default_factory=dict)

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
