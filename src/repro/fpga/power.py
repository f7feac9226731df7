"""Energy and power model of the accelerator on the U280.

The paper reports *energy efficiency* (Fig. 2b): tokens per joule derived
from throughput and board power.  Board power was measured on hardware; we
replace the measurement with an activity-based model:

``E_total = P_static * T  +  E_compute  +  E_onchip  +  E_offchip``

* static power covers the board (shell, HBM PHY, fans, regulators) and is
  burned for the whole runtime — the main reason a *faster* design is more
  energy-efficient even when its dynamic power is higher;
* compute energy is charged per MAC (int8 DSP operation);
* on-chip energy per byte moved through BRAM/URAM;
* off-chip energy per byte moved through HBM — the component operator
  fusion and memory reuse reduce.

The per-operation constants are order-of-magnitude figures from published
FPGA/accelerator energy studies (pJ/op at 16 nm); their absolute values
matter less than their ratios, which set the relative efficiency between
the accelerator variants — the quantity the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["EnergyModelConfig", "EnergyBreakdown", "EnergyModel"]


@dataclass(frozen=True)
class EnergyModelConfig:
    """Constants of the activity-based energy model.

    Two power baselines are provided:

    * the default values — whole-card energy, including the U280
      shell/HBM-PHY/regulator static power.  Use them for absolute energy
      estimates.
    * :meth:`effective` — kernel-level "effective energy" as the paper's
      Fig. 2(b) reports it: a small leakage term plus power proportional to
      datapath activity, which is what an on-board power-rail delta
      measurement of the accelerator kernel sees.
    """

    static_power_w: float = 25.0          # U280 board idle/static power
    clock_power_w_per_mhz: float = 0.01   # clock tree + always-on logic
    active_power_w: float = 30.0          # datapath power while engines are busy
    pj_per_int8_mac: float = 0.4          # DSP48 int8 multiply-accumulate
    pj_per_sfu_flop: float = 1.2          # float special-function op
    pj_per_onchip_byte: float = 0.8       # BRAM/URAM access
    pj_per_hbm_byte: float = 6.0          # HBM2 access energy

    def __post_init__(self) -> None:
        for name in (
            "static_power_w", "clock_power_w_per_mhz", "active_power_w",
            "pj_per_int8_mac", "pj_per_sfu_flop", "pj_per_onchip_byte",
            "pj_per_hbm_byte",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def effective(cls) -> "EnergyModelConfig":
        """Kernel-level 'effective energy' accounting (paper Fig. 2b).

        Static power is reduced to the design's own leakage/clock share and
        the dominant term becomes activity-proportional, mirroring a power
        measurement that isolates the accelerator kernel from the board
        baseline.
        """
        return cls(static_power_w=1.25, clock_power_w_per_mhz=0.0005,
                   active_power_w=45.0)


@dataclass
class EnergyBreakdown:
    """Per-component energy of one run, all in joules."""

    static_j: float = 0.0
    active_j: float = 0.0
    compute_j: float = 0.0
    sfu_j: float = 0.0
    onchip_j: float = 0.0
    offchip_j: float = 0.0

    @property
    def total_j(self) -> float:
        return (self.static_j + self.active_j + self.compute_j + self.sfu_j
                + self.onchip_j + self.offchip_j)

    @property
    def dynamic_j(self) -> float:
        return self.total_j - self.static_j

    def as_dict(self) -> Dict[str, float]:
        return {
            "static_j": self.static_j,
            "active_j": self.active_j,
            "compute_j": self.compute_j,
            "sfu_j": self.sfu_j,
            "onchip_j": self.onchip_j,
            "offchip_j": self.offchip_j,
            "total_j": self.total_j,
        }


class EnergyModel:
    """Turns activity counters into energy."""

    def __init__(self, config: EnergyModelConfig | None = None) -> None:
        self.config = config or EnergyModelConfig()

    # ------------------------------------------------------------------
    def energy(
        self,
        elapsed_seconds: float,
        clock_mhz: float,
        int8_macs: int = 0,
        sfu_flops: int = 0,
        onchip_bytes: int = 0,
        hbm_bytes: int = 0,
        busy_seconds: float = 0.0,
    ) -> EnergyBreakdown:
        """Compute the energy of a run from its activity counters.

        ``busy_seconds`` is the time the compute datapath was actively
        switching (engine busy time); it feeds the activity-proportional
        ``active_power_w`` term.
        """
        if elapsed_seconds < 0:
            raise ValueError("elapsed_seconds must be >= 0")
        if clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if busy_seconds < 0:
            raise ValueError("busy_seconds must be >= 0")
        if busy_seconds > elapsed_seconds * 1.0001 and elapsed_seconds > 0:
            raise ValueError("busy_seconds cannot exceed elapsed_seconds")
        for name, value in (
            ("int8_macs", int8_macs), ("sfu_flops", sfu_flops),
            ("onchip_bytes", onchip_bytes), ("hbm_bytes", hbm_bytes),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        cfg = self.config
        static_power = cfg.static_power_w + cfg.clock_power_w_per_mhz * clock_mhz
        pj = 1e-12
        return EnergyBreakdown(
            static_j=static_power * elapsed_seconds,
            active_j=cfg.active_power_w * busy_seconds,
            compute_j=int8_macs * cfg.pj_per_int8_mac * pj,
            sfu_j=sfu_flops * cfg.pj_per_sfu_flop * pj,
            onchip_j=onchip_bytes * cfg.pj_per_onchip_byte * pj,
            offchip_j=hbm_bytes * cfg.pj_per_hbm_byte * pj,
        )
