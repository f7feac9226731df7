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
from heapq import heapreplace
from typing import Dict, List, Sequence, Tuple

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
    """Dynamic occupancy bookkeeping of one channel during simulation.

    A read-only record for everyone but the :class:`MemorySystemModel`
    that owns it: the model is its only writer, because it keeps its
    channels ordered by ``busy_until`` and a write from outside would
    leave that order stale.
    """

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
        self._bytes_per_cycle = {
            c.name: c.bytes_per_cycle(clock_hz) for c in spec.channels
        }
        self._reorder()

    # ------------------------------------------------------------------
    def _reorder(self) -> None:
        """Rebuild the arbitration order: a heap of ``(busy_until, name,
        state)`` whose head is the least-busy channel, ties going to the
        lexicographically smallest *name* (``hbm10`` before ``hbm2``), not
        to declaration order.  Every committed cycle count depends on this
        order.  Names are unique, so two states are never compared."""
        self._order = sorted(
            (s.busy_until, name, s) for name, s in self.channels.items()
        )

    def reset(self) -> None:
        """Clear all dynamic state (between simulation runs)."""
        for state in self.channels.values():
            state.busy_until = 0
            state.bytes_transferred = 0
            state.n_transactions = 0
            state.busy_cycles = 0
        self._reorder()

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

        Without ``channel`` the least-busy channel is picked (see
        :meth:`issue_striped`); a zero-byte transfer names the channel it
        would have used and changes nothing.
        """
        if channel is None:
            return self.issue_striped((n_bytes,), now)[0]
        if channel not in self.channels:
            raise ValueError(
                f"unknown channel {channel!r}; known: {sorted(self.channels)}"
            )
        # Steering is arbitration among one channel.  It is rare, so
        # re-sorting afterwards is cheap, and keeps the next automatic pick
        # exactly what a scan over all channels would give.
        state = self.channels[channel]
        self._order = [(state.busy_until, channel, state)]
        try:
            return self.issue_striped((n_bytes,), now)[0]
        finally:
            self._reorder()

    def issue_striped(
        self,
        sizes: Sequence[int],
        now: int,
    ) -> List[Tuple[int, str]]:
        """Issue one transfer per entry of ``sizes`` at cycle ``now``, each
        to the channel that is least busy when its turn comes.

        This is one striped DMA transfer — and every automatic pick — in a
        single call: the arguments are validated once and each stripe
        replaces the head of the arbitration order instead of rescanning
        the channels.  Returns ``(completion_cycle, channel_name)`` per
        stripe, in order, with :meth:`issue`'s timing.
        """
        if sizes and min(sizes) < 0:
            raise ValueError("n_bytes must be >= 0")
        if now < 0:
            raise ValueError("now must be >= 0")
        order = self._order
        bytes_per_cycle = self._bytes_per_cycle
        issued = []
        for n_bytes in sizes:
            busy_until, name, state = order[0]
            if n_bytes == 0:
                issued.append((now, name))
                continue
            burst = math.ceil(n_bytes / bytes_per_cycle[name])
            busy_until = (now if now > busy_until else busy_until) + burst
            heapreplace(order, (busy_until, name, state))
            state.busy_until = busy_until
            state.bytes_transferred += n_bytes
            state.n_transactions += 1
            state.busy_cycles += burst
            issued.append((busy_until + state.spec.access_latency_cycles, name))
        return issued

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
