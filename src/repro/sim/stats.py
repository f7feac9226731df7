"""Activity counters accumulated during a simulated run.

The counters feed two downstream consumers: the energy model (MACs, SFU
FLOPs, on-/off-chip bytes) and the experiment reports (stall cycles,
instruction counts, per-engine busy time).  They are deliberately plain
integers with explicit names so tests can assert exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["RunCounters"]


@dataclass
class RunCounters:
    """Aggregate activity of one simulated execution."""

    # compute activity
    int8_macs: int = 0
    sfu_flops: int = 0
    # data movement
    hbm_read_bytes: int = 0
    hbm_write_bytes: int = 0
    onchip_read_bytes: int = 0
    onchip_write_bytes: int = 0
    # control
    instructions: int = 0
    mpe_tiles: int = 0
    sfu_ops: int = 0
    dma_transfers: int = 0
    # stalls
    buffer_stall_cycles: int = 0
    memory_stall_cycles: int = 0
    # quantisation
    dequant_flops: int = 0
    quant_saved_bytes: int = 0

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"counter {name} must be non-negative")

    # ------------------------------------------------------------------
    @property
    def hbm_bytes(self) -> int:
        """Total off-chip traffic (reads + writes)."""
        return self.hbm_read_bytes + self.hbm_write_bytes

    @property
    def onchip_bytes(self) -> int:
        """Total on-chip SRAM traffic (reads + writes)."""
        return self.onchip_read_bytes + self.onchip_write_bytes

    def as_dict(self) -> Dict[str, int]:
        return {
            "int8_macs": self.int8_macs,
            "sfu_flops": self.sfu_flops,
            "hbm_read_bytes": self.hbm_read_bytes,
            "hbm_write_bytes": self.hbm_write_bytes,
            "onchip_read_bytes": self.onchip_read_bytes,
            "onchip_write_bytes": self.onchip_write_bytes,
            "instructions": self.instructions,
            "mpe_tiles": self.mpe_tiles,
            "sfu_ops": self.sfu_ops,
            "dma_transfers": self.dma_transfers,
            "buffer_stall_cycles": self.buffer_stall_cycles,
            "memory_stall_cycles": self.memory_stall_cycles,
            "dequant_flops": self.dequant_flops,
            "quant_saved_bytes": self.quant_saved_bytes,
        }

    def merge(self, other: "RunCounters") -> "RunCounters":
        """Return the element-wise sum of two counter sets."""
        merged = RunCounters()
        for name, value in self.as_dict().items():
            setattr(merged, name, value + getattr(other, name))
        return merged

    def __add__(self, other: "RunCounters") -> "RunCounters":
        return self.merge(other)
