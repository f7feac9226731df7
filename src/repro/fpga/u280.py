"""The Alveo U280 platform description used by the accelerator.

Bundles the device resource budget, the HBM subsystem and the kernel
clock into one object, and provides the published board facts the
cost-efficiency comparison needs (list price, TDP).

Datasheet figures (XCU280, Alveo U280 product brief):

* 1,304k LUTs, 2,607k flip-flops, 9,024 DSP48E2 slices
* 2,016 block RAMs (36 Kb) ≈ 8.8 MB, 960 UltraRAMs (288 Kb) ≈ 33.7 MB
* 8 GB HBM2 at ~460 GB/s over 32 pseudo-channels (the card's 32 GB of
  DDR4 is not modelled: the accelerator keeps weights and KV in HBM)
* typical kernel clocks 200–300 MHz for HLS designs (the paper uses
  Vitis 2021.1); 225 MHz is our default
* board max power 225 W, list price ≈ $8,000 (paper §3.2.2)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hbm import MemorySystemSpec
from .power import EnergyModel, EnergyModelConfig
from .resources import ResourceVector

__all__ = ["FpgaPlatform", "u280", "U280_RESOURCES"]

U280_RESOURCES = ResourceVector(
    lut=1_304_000,
    ff=2_607_000,
    dsp=9_024,
    bram_36k=2_016,
    uram=960,
)


@dataclass
class FpgaPlatform:
    """A complete FPGA card description.

    Attributes
    ----------
    name:
        Marketing name of the card.
    resources:
        Programmable-logic resource totals.
    hbm:
        Off-chip memory subsystem.
    clock_mhz:
        Kernel clock used by the accelerator.
    price_usd:
        List price used for the cost-efficiency comparison.
    max_power_w:
        Board power ceiling.
    """

    name: str
    resources: ResourceVector
    hbm: MemorySystemSpec
    clock_mhz: float
    price_usd: float
    max_power_w: float
    energy_config: EnergyModelConfig = field(default_factory=EnergyModelConfig)

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if self.price_usd <= 0:
            raise ValueError("price_usd must be positive")
        if self.max_power_w <= 0:
            raise ValueError("max_power_w must be positive")

    # ------------------------------------------------------------------
    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6

    @property
    def cycle_seconds(self) -> float:
        """Duration of one kernel clock cycle."""
        return 1.0 / self.clock_hz

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert a cycle count to wall-clock seconds at the kernel clock."""
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        return cycles * self.cycle_seconds

    def energy_model(self) -> EnergyModel:
        """Energy model parameterised for this card."""
        return EnergyModel(self.energy_config)

    @property
    def onchip_bytes(self) -> int:
        """Total on-chip SRAM capacity (BRAM + URAM)."""
        return self.resources.onchip_bytes


def u280(
    clock_mhz: float = 225.0,
    n_hbm_channels: int = 32,
    price_usd: float = 8_000.0,
) -> FpgaPlatform:
    """Construct the Alveo U280 platform (the paper's target board)."""
    return FpgaPlatform(
        name="Xilinx Alveo U280",
        resources=U280_RESOURCES,
        hbm=MemorySystemSpec.u280_hbm(n_hbm_channels),
        clock_mhz=clock_mhz,
        price_usd=price_usd,
        max_power_w=225.0,
    )
