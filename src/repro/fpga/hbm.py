"""Off-chip memory system model: HBM2 stacks and DDR4 of the Alveo U280.

The U280 has two HBM2 stacks exposing 32 pseudo-channels (8 GB total,
~460 GB/s aggregate) plus two DDR4-2400 DIMM channels (32 GB, ~38 GB/s
aggregate).  The accelerator streams weights and spills activations
through these channels; their bandwidth and access latency are the main
determinant of decode latency for a memory-bound LLM workload, so the
simulator models each channel's occupancy individually.

The model is transaction-level: a transfer of ``n`` bytes on a channel
occupies that channel for ``ceil(n / bytes_per_cycle)`` cycles after an
initial access latency, and concurrent transfers on the same channel are
serialised.  This captures the first-order contention effects the paper's
data-pipeline optimization exploits (overlapping transfers with compute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["MemoryChannelSpec", "MemorySystemSpec", "ChannelState", "MemorySystemModel"]


@dataclass(frozen=True)
class MemoryChannelSpec:
    """Static description of one off-chip memory channel."""

    name: str
    bandwidth_gbps: float       # sustained bandwidth in GB/s
    access_latency_cycles: int  # fixed per-transaction latency
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth_gbps must be positive")
        if self.access_latency_cycles < 0:
            raise ValueError("access_latency_cycles must be >= 0")
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")

    def bytes_per_cycle(self, clock_hz: float) -> float:
        """Sustained bytes per accelerator clock cycle."""
        if clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        return self.bandwidth_gbps * 1e9 / clock_hz

    def transfer_cycles(self, n_bytes: int, clock_hz: float) -> int:
        """Cycles this channel is occupied by an ``n_bytes`` transfer."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        if n_bytes == 0:
            return 0
        burst = math.ceil(n_bytes / self.bytes_per_cycle(clock_hz))
        return self.access_latency_cycles + burst


@dataclass(frozen=True)
class MemorySystemSpec:
    """The full off-chip memory system: a list of channels."""

    channels: Tuple[MemoryChannelSpec, ...]

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("a memory system needs at least one channel")
        names = [c.name for c in self.channels]
        if len(names) != len(set(names)):
            raise ValueError("channel names must be unique")

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def total_bandwidth_gbps(self) -> float:
        return sum(c.bandwidth_gbps for c in self.channels)

    @property
    def total_capacity_bytes(self) -> int:
        return sum(c.capacity_bytes for c in self.channels)

    @classmethod
    def u280_hbm(cls, n_pseudo_channels: int = 32) -> "MemorySystemSpec":
        """The U280 HBM2 subsystem: 32 pseudo-channels, 256 MB / 14.4 GB/s each."""
        if not 1 <= n_pseudo_channels <= 32:
            raise ValueError("the U280 exposes between 1 and 32 HBM pseudo-channels")
        channels = tuple(
            MemoryChannelSpec(
                name=f"hbm{i}",
                bandwidth_gbps=14.375,
                access_latency_cycles=64,
                capacity_bytes=256 * 1024 * 1024,
            )
            for i in range(n_pseudo_channels)
        )
        return cls(channels=channels)

    @classmethod
    def u280_ddr(cls) -> "MemorySystemSpec":
        """The U280 DDR4 subsystem: two 16 GB DIMMs at ~19.2 GB/s each."""
        channels = tuple(
            MemoryChannelSpec(
                name=f"ddr{i}",
                bandwidth_gbps=19.2,
                access_latency_cycles=160,
                capacity_bytes=16 * 1024 * 1024 * 1024,
            )
            for i in range(2)
        )
        return cls(channels=channels)


@dataclass
class ChannelState:
    """Dynamic occupancy bookkeeping of one channel during simulation."""

    spec: MemoryChannelSpec
    busy_until: int = 0
    bytes_transferred: int = 0
    n_transactions: int = 0
    busy_cycles: int = 0


class MemorySystemModel:
    """Contention-aware timing model of the off-chip memory system.

    The model is used in two ways:

    * *analytically*, via :meth:`ideal_transfer_cycles`, for roofline-style
      estimates of a perfectly-striped transfer, and
    * *transactionally*, via :meth:`issue`, during cycle-level simulation:
      each transaction is steered to a channel (explicitly or by
      least-loaded selection), serialised after that channel's previous
      work, and the completion cycle is returned.
    """

    def __init__(self, spec: MemorySystemSpec, clock_hz: float) -> None:
        if clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        self.spec = spec
        self.clock_hz = clock_hz
        self.channels: Dict[str, ChannelState] = {
            c.name: ChannelState(spec=c) for c in spec.channels
        }

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all dynamic state (between simulation runs)."""
        for state in self.channels.values():
            state.busy_until = 0
            state.bytes_transferred = 0
            state.n_transactions = 0
            state.busy_cycles = 0

    def ideal_transfer_cycles(self, n_bytes: int) -> int:
        """Cycles to move ``n_bytes`` perfectly striped over all channels."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        if n_bytes == 0:
            return 0
        per_cycle = sum(
            c.bytes_per_cycle(self.clock_hz) for c in self.spec.channels
        )
        latency = max(c.access_latency_cycles for c in self.spec.channels)
        return latency + math.ceil(n_bytes / per_cycle)

    # ------------------------------------------------------------------
    def _pick_channel(self) -> ChannelState:
        """Least-busy channel; ties go to the lexicographically smallest
        *name* (``hbm10`` before ``hbm2``), not to declaration order.
        Every committed cycle count depends on this order."""
        return min(self.channels.values(), key=lambda s: (s.busy_until, s.spec.name))

    def issue(
        self,
        n_bytes: int,
        now: int,
        channel: str | None = None,
    ) -> Tuple[int, str]:
        """Issue a transfer of ``n_bytes`` at cycle ``now``.

        Returns ``(completion_cycle, channel_name)``.  The transfer's data
        burst starts when the selected channel's data bus becomes free (or
        ``now``, whichever is later) and occupies the bus for
        ``ceil(bytes / bytes_per_cycle)`` cycles.  The fixed access latency
        is added to the *completion* time but does not occupy the bus, so
        back-to-back transactions pipeline their latencies — the behaviour
        of real HBM/DDR controllers with multiple outstanding requests.  A
        requester that serialises on each completion (the unoptimized
        accelerator) therefore pays the latency on every transaction, while
        a pipelined requester hides it.
        """
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        if now < 0:
            raise ValueError("now must be >= 0")
        state = self.channels[channel] if channel is not None else self._pick_channel()
        if n_bytes == 0:
            return now, state.spec.name
        start = max(now, state.busy_until)
        burst = math.ceil(n_bytes / state.spec.bytes_per_cycle(self.clock_hz))
        state.busy_until = start + burst
        completion = start + state.spec.access_latency_cycles + burst
        state.bytes_transferred += n_bytes
        state.n_transactions += 1
        state.busy_cycles += burst
        return completion, state.spec.name

    # ------------------------------------------------------------------
    @property
    def total_bytes_transferred(self) -> int:
        return sum(s.bytes_transferred for s in self.channels.values())

    @property
    def total_transactions(self) -> int:
        return sum(s.n_transactions for s in self.channels.values())

    def utilization(self, elapsed_cycles: int) -> float:
        """Average channel occupancy over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        busy = sum(s.busy_cycles for s in self.channels.values())
        return busy / (elapsed_cycles * len(self.channels))
