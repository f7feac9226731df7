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


@dataclass(frozen=True)
class ChannelState:
    """One channel's record as of the moment it was read off
    :attr:`MemorySystemModel.channels`: a snapshot, not a handle.  What a
    channel carried, and when, is in the traced run (one ``hbm:<name>``
    event per stripe); the model itself keeps traffic as totals only."""

    spec: MemoryChannelSpec
    busy_until: int = 0


class MemorySystemModel:
    """Contention-aware timing model of the off-chip memory system.

    The model is used in two ways:

    * *analytically*, via :meth:`ideal_transfer_cycles`, for roofline-style
      estimates of a perfectly-striped transfer, and
    * *transactionally*, via :meth:`issue` / :meth:`issue_split`, during
      cycle-level simulation: each transaction is steered to a channel
      (explicitly or by least-loaded selection), serialised after that
      channel's previous work, and the completion cycle is returned.

    The arbitration order is ``_order``, a sorted list with one int per
    channel: ``busy_until * n_channels + rank``, ``rank`` being the
    channel's index among the sorted names.  Its head is the least-busy
    channel, ties going to the lexicographically smallest *name*
    (``hbm10`` before ``hbm2``), not to declaration order; every committed
    cycle count depends on this order.  A *pick* is the key a served
    channel re-enters the order with — :meth:`stripes` reads the stripe's
    completion cycle and channel name off it.

    For the cycle simulator's periodic fast-forward the model encodes
    this order relative to a cycle (:meth:`arbitration_state`: idle
    channels keep only their place, the tie-break that still matters) and
    moves every channel later by a whole number of cycles
    (:meth:`fast_forward`).
    """

    def __init__(self, spec: MemorySystemSpec, clock_hz: float) -> None:
        if clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        self.spec = spec
        self.clock_hz = clock_hz
        by_name = sorted(spec.channels, key=lambda c: c.name)
        self._names = [c.name for c in by_name]
        self._bytes_per_cycle = [c.bytes_per_cycle(clock_hz) for c in by_name]
        self._latency = [c.access_latency_cycles for c in by_name]
        # Whether a burst costs the same on whichever channel it lands.
        self._uniform = (len(set(self._bytes_per_cycle)) == 1
                         and len(set(self._latency)) == 1)
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all dynamic state (between simulation runs)."""
        self._order = list(range(len(self._names)))
        self.total_bytes_transferred = 0
        self.total_transactions = 0
        self._busy_cycles = 0

    @property
    def channels(self) -> Dict[str, ChannelState]:
        """Every channel's :class:`ChannelState` now, in declaration order."""
        n = len(self._names)
        busy = {self._names[key % n]: key // n for key in self._order}
        return {c.name: ChannelState(c, busy[c.name]) for c in self.spec.channels}

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
        if channel not in self._names:
            raise ValueError(f"unknown channel {channel!r}; known: {self._names}")
        # Steering is arbitration among one channel: the same loop over a
        # one-entry order, whose entry then goes back among the others.
        order, n = self._order, len(self._names)
        rank = self._names.index(channel)
        at = next(i for i, key in enumerate(order) if key % n == rank)
        head = [order[at]]
        picks = self._scan(head, (n_bytes,), now)
        order[at] = head[0]
        order.sort()
        return self.stripes(picks)[0]

    def issue_striped(self, sizes: Sequence[int], now: int) -> List[Tuple[int, str]]:
        """Issue one transfer per entry of ``sizes`` at cycle ``now``, each
        to the channel that is least busy when its turn comes.

        Returns ``(completion_cycle, channel_name)`` per stripe, in order,
        with :meth:`issue`'s timing.
        """
        return self.stripes(self._scan(self._order, sizes, now))

    def issue_split(self, n_bytes: int, stripe: int, now: int) -> Tuple[int, List[int]]:
        """Issue ``n_bytes`` at cycle ``now`` as one striped DMA transfer:
        ``stripe - 1`` stripes of ``n_bytes // stripe`` bytes and a last
        one with the rest, every stripe at least a byte.

        Returns ``(cycle the slowest stripe completes, picks)``, the picks
        being what :meth:`issue_striped` on those sizes would have chosen.
        On channels of one speed, with ``busy`` the sorted ``busy_until``
        and ``burst`` a leading stripe's cycles, ``max(now, busy[0]) +
        burst > busy[stripe - 1]`` means every served channel comes back
        strictly later than each of the first ``stripe`` that is still
        untouched (strictly, so no name tie is left to decide anything):
        the scan would take exactly those, in order, once each, and the
        last stripe — the latest start and the longest burst — is the
        slowest.  That is computed here in one step; otherwise the scan
        runs.
        """
        order, n = self._order, len(self._names)
        if not 0 < stripe <= n:
            raise ValueError(f"stripe must be between 1 and {n}")
        if n_bytes < stripe:
            raise ValueError("n_bytes must give every stripe a byte")
        if now < 0:
            raise ValueError("now must be >= 0")
        chunk = n_bytes // stripe
        last = n_bytes - chunk * (stripe - 1)
        per_cycle = self._bytes_per_cycle[0]  # every channel's, when uniform
        burst = math.ceil(chunk / per_cycle)
        first_free = order[0] // n
        if (self._uniform and (now if now > first_free else first_free) + burst
                > order[stripe - 1] // n):
            idle, step = now * n, burst * n  # keys below ``idle`` start at ``now``
            picks = [(key if key > idle else idle + key % n) + step
                     for key in order[:stripe]]
            last_burst = math.ceil(last / per_cycle)
            picks[-1] += (last_burst - burst) * n
            order[:stripe] = picks
            order.sort()
            self.total_bytes_transferred += n_bytes
            self.total_transactions += stripe
            self._busy_cycles += burst * (stripe - 1) + last_burst
            return picks[-1] // n + self._latency[0], picks
        picks = self._scan(order, [chunk] * (stripe - 1) + [last], now)
        return max(self.stripes(picks))[0], picks  # pairs order by cycle first

    def _scan(self, order: List[int], sizes: Sequence[int], now: int) -> List[int]:
        """The arbitration itself, one stripe at a time: each stripe goes
        to the head of ``order``, which re-enters it as the stripe's pick
        (a sorted list is a heap, and is sorted again on the way out)."""
        if sizes and min(sizes) < 0:
            raise ValueError("n_bytes must be >= 0")
        if now < 0:
            raise ValueError("now must be >= 0")
        n = len(self._names)
        picks = []
        for n_bytes in sizes:
            busy_until, rank = divmod(order[0], n)
            if n_bytes == 0:
                # Completes at ``now`` on the head and occupies nothing.
                picks.append((now - self._latency[rank]) * n + rank)
                continue
            burst = math.ceil(n_bytes / self._bytes_per_cycle[rank])
            busy_until = (now if now > busy_until else busy_until) + burst
            picks.append(busy_until * n + rank)
            heapreplace(order, picks[-1])
            self.total_bytes_transferred += n_bytes
            self.total_transactions += 1
            self._busy_cycles += burst
        order.sort()
        return picks

    def arbitration_state(self, now: int) -> Tuple[int, ...]:
        """The order as seen by requests made at ``now`` or later, one int
        per channel in order: ``(busy_until - now) * n_channels + rank``
        for a busy channel, the bare rank for an idle one (every idle
        channel starts a burst at once; only its place in the order,
        the tie-break, is left to matter).  Two models with equal states
        at ``now`` and ``now + d`` serve the same requests shifted by
        ``d`` identically."""
        n, base = len(self._names), now * len(self._names)
        return tuple([key - base if key > base else key % n for key in self._order])

    def totals(self) -> Tuple[int, int, int]:
        """Bytes, transactions and busy cycles summed over every channel."""
        return self.total_bytes_transferred, self.total_transactions, self._busy_cycles

    def fast_forward(self, cycles: int, totals: Sequence[int]) -> None:
        """Every channel ``cycles`` later, and ``totals`` added to
        :meth:`totals`: the state after repeating, shifted, whatever
        took the model from an equal :meth:`arbitration_state` to this."""
        shift = cycles * len(self._names)
        self._order[:] = [key + shift for key in self._order]
        self.total_bytes_transferred += totals[0]
        self.total_transactions += totals[1]
        self._busy_cycles += totals[2]

    def stripes(self, picks: Sequence[int]) -> List[Tuple[int, str]]:
        """``(completion_cycle, channel_name)`` of each pick."""
        n, names, latency = len(self._names), self._names, self._latency
        return [(key // n + latency[key % n], names[key % n]) for key in picks]

    # ------------------------------------------------------------------
    def utilization(self, elapsed_cycles: int) -> float:
        """Average channel occupancy over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return self._busy_cycles / (elapsed_cycles * len(self._names))
