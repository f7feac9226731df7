"""Simulation-facing wrapper around the off-chip memory model.

:class:`MemoryPort` issues HBM/DDR transfers at a cycle the caller names
and returns the cycle they complete; it keeps no clock of its own.  The
underlying :class:`~repro.fpga.hbm.MemorySystemModel` tracks per-channel
occupancy (so concurrent transfers contend realistically) — which makes
the *order* of calls part of the result: the caller must issue transfers
in the order the modelled hardware would.  A striped transfer is one
call into the model, which arbitrates all its stripes at once; what each
stripe did is read back only to write the trace.  The
:class:`~repro.sim.stats.RunCounters` accumulate traffic for the energy
model.
"""

from __future__ import annotations

from typing import Optional

from ..fpga.hbm import MemorySystemModel, MemorySystemSpec
from .stats import RunCounters
from .trace import Trace

__all__ = ["MemoryPort", "MemoryBudget"]


class MemoryBudget:
    """Reserve/release ledger over a fixed off-chip capacity.

    Batched serving admits a request only if its worst-case KV-cache
    footprint fits in the remaining budget; the reservation is held until
    the request retires.  The ledger is deliberately simple — bytes in,
    bytes out — so it can also cap other HBM residents (weight spill,
    activation buffers) if a caller wants to account for them.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._reserved = 0

    @classmethod
    def from_spec(cls, spec: MemorySystemSpec, fraction: float = 1.0) -> "MemoryBudget":
        """Budget covering ``fraction`` of a memory system's capacity."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        return cls(int(spec.total_capacity_bytes * fraction))

    @property
    def reserved_bytes(self) -> int:
        return self._reserved

    @property
    def available_bytes(self) -> int:
        return self.capacity_bytes - self._reserved

    def fits(self, n_bytes: int) -> bool:
        """Whether ``n_bytes`` can currently be reserved."""
        return 0 <= n_bytes <= self.available_bytes

    def reserve(self, n_bytes: int) -> bool:
        """Reserve ``n_bytes`` if they fit; returns False otherwise."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        if n_bytes > self.available_bytes:
            return False
        self._reserved += n_bytes
        return True

    def release(self, n_bytes: int) -> None:
        """Return ``n_bytes`` to the budget."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        if n_bytes > self._reserved:
            raise ValueError(
                f"releasing {n_bytes} bytes but only {self._reserved} reserved"
            )
        self._reserved -= n_bytes


class MemoryPort:
    """Issues read/write transactions against a memory system model."""

    def __init__(
        self,
        spec: MemorySystemSpec,
        clock_hz: float,
        counters: RunCounters,
        trace: Optional[Trace] = None,
        name: str = "hbm",
    ) -> None:
        self.model = MemorySystemModel(spec, clock_hz)
        self._n_channels = spec.n_channels
        self.counters = counters
        self.trace = trace
        self.name = name

    # ------------------------------------------------------------------
    def read(self, n_bytes: int, now: int, label: str = "read",
             channel: str | None = None) -> int:
        """Issue a read of ``n_bytes`` at cycle ``now``; returns its completion cycle."""
        return self._transfer(n_bytes, now, label, is_write=False, channel=channel)

    def write(self, n_bytes: int, now: int, label: str = "write",
              channel: str | None = None) -> int:
        """Issue a write of ``n_bytes`` at cycle ``now``; returns its completion cycle."""
        return self._transfer(n_bytes, now, label, is_write=True, channel=channel)

    def _transfer(self, n_bytes: int, now: int, label: str, is_write: bool,
                  channel: str | None) -> int:
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        completion, channel_name = self.model.issue(n_bytes, now, channel=channel)
        if is_write:
            self.counters.hbm_write_bytes += n_bytes
        else:
            self.counters.hbm_read_bytes += n_bytes
        if n_bytes > 0:
            self.counters.dma_transfers += 1
        if self.trace is not None and n_bytes > 0:
            self.trace.record(
                engine=f"{self.name}:{channel_name}", label=label,
                start=now, end=completion, category="transfer",
            )
        # Whether the time up to ``completion`` is exposed as a memory
        # stall is the caller's decision: a sequential controller waits
        # for it, a pipelined one overlaps it with compute.
        return completion

    # ------------------------------------------------------------------
    def read_striped(self, n_bytes: int, stripe: int, now: int,
                     label: str = "read") -> int:
        """Read ``n_bytes`` split evenly across ``stripe`` channels at ``now``.

        Models a wide AXI/DMA engine that pulls a tile from several HBM
        pseudo-channels concurrently; returns the cycle at which the
        slowest stripe finishes.
        """
        return self._striped(n_bytes, stripe, now, label, is_write=False)

    def write_striped(self, n_bytes: int, stripe: int, now: int,
                      label: str = "write") -> int:
        """Write ``n_bytes`` split evenly across ``stripe`` channels at ``now``."""
        return self._striped(n_bytes, stripe, now, label, is_write=True)

    def _striped(self, n_bytes: int, stripe: int, now: int, label: str,
                 is_write: bool) -> int:
        if stripe <= 0:
            raise ValueError("stripe must be positive")
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        stripe = min(stripe, self._n_channels)
        if n_bytes == 0 or stripe == 1:
            return self._transfer(n_bytes, now, label, is_write=is_write, channel=None)
        if n_bytes < stripe:
            # Every stripe but the last is empty; an empty stripe occupies
            # no channel and is not a transfer.
            return self._transfer(n_bytes, now, f"{label}[{stripe - 1}]",
                                  is_write=is_write, channel=None)
        latest, picks = self.model.issue_split(n_bytes, stripe, now)
        self.counters.dma_transfers += stripe
        if self.trace is not None:
            for i, (completion, channel_name) in enumerate(self.model.stripes(picks)):
                self.trace.record(
                    engine=f"{self.name}:{channel_name}", label=f"{label}[{i}]",
                    start=now, end=completion, category="transfer",
                )
        if is_write:
            self.counters.hbm_write_bytes += n_bytes
        else:
            self.counters.hbm_read_bytes += n_bytes
        return latest

    # ------------------------------------------------------------------
    def ideal_cycles(self, n_bytes: int) -> int:
        """Contention-free transfer estimate (for analytical baselines)."""
        return self.model.ideal_transfer_cycles(n_bytes)

    def reset(self) -> None:
        """Clear the dynamic channel state."""
        self.model.reset()
