"""Off-chip memory system model: the HBM2 stacks of the Alveo U280.

The U280 has two HBM2 stacks exposing 32 pseudo-channels (8 GB total,
~460 GB/s aggregate).  The accelerator streams weights and spills
activations through these channels; their bandwidth and access latency
are the main determinant of decode latency for a memory-bound LLM
workload, so the simulator models each channel's occupancy individually.

The model is transaction-level: a transfer of ``n`` bytes on a channel
occupies that channel for ``ceil(n / bytes_per_cycle)`` cycles after an
initial access latency, and concurrent transfers on the same channel are
serialised.  This captures the first-order contention effects the paper's
data-pipeline optimization exploits (overlapping transfers with compute).
The cycle simulator issues every transfer as one
:meth:`MemorySystemModel.issue_split` call; a traced run reads which
channel served each stripe off the picks it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapreplace
from typing import List, Sequence, Tuple

__all__ = ["MemoryChannelSpec", "MemorySystemSpec", "MemorySystemModel"]


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


class MemorySystemModel:
    """Contention-aware timing model of the off-chip memory system, driven
    by the cycle simulator one call per transfer: :meth:`issue_split`.

    A transfer's data burst starts when its channel's data bus is free (or
    at the cycle it is issued, whichever is later) and occupies the bus
    for ``ceil(bytes / bytes_per_cycle)`` cycles.  The fixed access
    latency is added to the *completion* time but does not occupy the
    bus, so back-to-back transactions pipeline their latencies — the
    behaviour of real HBM/DDR controllers with several outstanding
    requests.  A requester that serialises on each completion (the
    unoptimized accelerator) therefore pays the latency on every
    transaction, while a pipelined requester hides it.

    Every channel has one bandwidth and one latency (a mixed spec is
    refused); which channel serves a stripe changes only *when*, never
    how long.  The arbitration order is ``_order``, a sorted list with one
    int per channel: ``busy_until * n_channels + rank``, ``rank`` being
    the channel's index among the sorted names.  Its head is the
    least-busy channel, ties going to the lexicographically smallest
    *name* (``hbm10`` before ``hbm2``), not to declaration order; every
    committed cycle count depends on this order.  A *pick* is the key a
    served channel re-enters the order with — :meth:`stripes` reads the
    stripe's completion cycle and channel name off it.

    The one running total is :attr:`total_transactions`, the stripes
    issued (:meth:`totals`).  For the cycle simulator's fast-forward the
    model encodes its order relative to a cycle
    (:meth:`arbitration_state`: idle channels keep only their place, the
    tie-break that still matters) and takes up such a state at another
    cycle (:meth:`fast_forward`).
    """

    def __init__(self, spec: MemorySystemSpec, clock_hz: float) -> None:
        if clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if len({(c.bandwidth_gbps, c.access_latency_cycles) for c in spec.channels}) != 1:
            raise ValueError("every channel of a memory system must have one "
                             "bandwidth and one access latency")
        self._names = sorted(c.name for c in spec.channels)
        self._per_cycle = spec.channels[0].bytes_per_cycle(clock_hz)
        self._latency = spec.channels[0].access_latency_cycles
        self._order = list(range(len(self._names)))
        self.total_transactions = 0

    def issue_split(self, n_bytes: int, stripe: int, now: int) -> Tuple[int, List[int]]:
        """Issue ``n_bytes`` at cycle ``now`` as one striped DMA transfer:
        ``stripe - 1`` stripes of ``n_bytes // stripe`` bytes and a last
        one with the rest, every stripe at least a byte, each to the
        channel that is least busy when its turn comes.

        Returns ``(cycle the slowest stripe completes, picks)``.  With
        ``busy`` the sorted ``busy_until`` and ``burst`` a leading stripe's
        cycles, ``max(now, busy[0]) + burst > busy[stripe - 1]`` means
        every served channel comes back strictly later than each of the
        first ``stripe`` that is still untouched (strictly, so no name tie
        is left to decide anything): the arbitration takes exactly those,
        in order, once each, and the last stripe — the latest start and
        the longest burst — is the slowest.  That is computed here in one
        step; otherwise :meth:`_scan` arbitrates stripe by stripe.
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
        burst = math.ceil(chunk / self._per_cycle)
        first_free = order[0] // n
        if (now if now > first_free else first_free) + burst > order[stripe - 1] // n:
            idle, step = now * n, burst * n  # keys below ``idle`` start at ``now``
            picks = [(key if key > idle else idle + key % n) + step
                     for key in order[:stripe]]
            picks[-1] += (math.ceil(last / self._per_cycle) - burst) * n
            order[:stripe] = picks
            order.sort()
            self.total_transactions += stripe
            return picks[-1] // n + self._latency, picks
        picks = self._scan([chunk] * (stripe - 1) + [last], now)
        return max(picks) // n + self._latency, picks

    def _scan(self, sizes: Sequence[int], now: int) -> List[int]:
        """The arbitration itself, one stripe at a time: each stripe goes
        to the head of the order, which re-enters it as the stripe's pick
        (a sorted list is a heap, and is sorted again on the way out)."""
        order, n = self._order, len(self._names)
        picks = []
        for n_bytes in sizes:
            busy_until, rank = divmod(order[0], n)
            busy_until = (now if now > busy_until else busy_until) + math.ceil(
                n_bytes / self._per_cycle)
            picks.append(busy_until * n + rank)
            heapreplace(order, picks[-1])
        order.sort()
        self.total_transactions += len(sizes)
        return picks

    def stripes(self, picks: Sequence[int]) -> List[Tuple[int, str]]:
        """``(completion_cycle, channel_name)`` of each pick."""
        n, names, latency = len(self._names), self._names, self._latency
        return [(key // n + latency, names[key % n]) for key in picks]

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

    def totals(self) -> Tuple[int, ...]:
        """The running totals a fast-forward advances: transactions."""
        return (self.total_transactions,)

    def fast_forward(self, state: Sequence[int], now: int, totals: Sequence[int]) -> None:
        """An order whose :meth:`arbitration_state` at ``now`` is ``state``,
        and ``totals`` added to :meth:`totals`: the model after repeating,
        shifted to ``now``, whatever took another from ``state`` on.  The
        idle channels, a prefix of the order, get distinct ``busy_until``
        cycles before ``now`` in their order (negative ones near the start
        of a run); nothing later tells them from the cycles they had."""
        n = len(self._names)
        idle = sum(1 for key in state if key < n)
        self._order[:] = [(now - idle + j) * n + key for j, key in enumerate(state[:idle])]
        self._order += [key + now * n for key in state[idle:]]
        self.total_transactions += totals[0]
