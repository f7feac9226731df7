"""Analytical (roofline-style) latency model of the accelerator.

The cycle-level simulator is the source of truth for the evaluation, but a
closed-form estimate of a decode step is valuable for two reasons:

* **sanity-checking** — the simulated cycle count must land between the
  analytical lower bound (perfect overlap of streaming and compute) and
  the serial upper bound (no overlap at all); a regression that breaks the
  pipeline model shows up as a violation of these brackets;
* **fast design-space pruning** — the design-space exploration example can
  discard configurations whose analytical bound is already worse than the
  incumbent without paying for a simulation.

The model works directly on a compiled :class:`~repro.accel.instructions.Program`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..fpga.u280 import FpgaPlatform
from .config import AcceleratorConfig
from .instructions import Program
from .pipeline import DISPATCH_CYCLES

__all__ = ["AnalyticalEstimate", "AnalyticalModel"]


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Closed-form cycle estimates for one decode-step program."""

    load_cycles: int          # streaming time of all off-chip reads
    store_cycles: int         # streaming time of all off-chip writes
    compute_cycles: int       # back-to-back compute time of all packets
    dispatch_cycles: int      # per-operator control overhead
    flush_cycles: int         # buffer-pool drain penalty (no-reuse designs)

    @property
    def overlapped_cycles(self) -> int:
        """Lower bound: perfect load/compute/store overlap (pipelined)."""
        streaming = max(self.load_cycles, self.compute_cycles, self.store_cycles)
        return streaming + self.dispatch_cycles + self.flush_cycles

    @property
    def serial_cycles(self) -> int:
        """Upper bound: strictly sequential read-compute-write."""
        return (self.load_cycles + self.compute_cycles + self.store_cycles
                + self.dispatch_cycles + self.flush_cycles)

    def brackets(self) -> tuple[int, int]:
        """(lower, upper) bound pair for the simulated cycle count."""
        return self.overlapped_cycles, self.serial_cycles


class AnalyticalModel:
    """Derives :class:`AnalyticalEstimate` objects from compiled programs."""

    def __init__(self, config: AcceleratorConfig, platform: FpgaPlatform) -> None:
        self.config = config
        self.platform = platform

    # ------------------------------------------------------------------
    def _stream_cycles(self, n_bytes: int, per_transfer_latency: bool) -> int:
        """Cycles to stream ``n_bytes`` over the configured stripe width."""
        if n_bytes <= 0:
            return 0
        stripe = min(self.config.hbm_stripe, self.platform.hbm.n_channels)
        channels = self.platform.hbm.channels[:stripe]
        bytes_per_cycle = sum(c.bytes_per_cycle(self.platform.clock_hz)
                              for c in channels)
        cycles = math.ceil(n_bytes / bytes_per_cycle)
        if per_transfer_latency:
            cycles += max(c.access_latency_cycles for c in channels)
        return cycles

    def estimate(self, program: Program) -> AnalyticalEstimate:
        """Closed-form estimate of ``program``'s execution."""
        n_packets = program.n_packets
        load_latency_exposed = not self.config.pipeline
        load = self._stream_cycles(program.total_load_bytes, False)
        store = self._stream_cycles(program.total_store_bytes, False)
        if load_latency_exposed:
            # a sequential controller pays the access latency per packet
            latency = max(
                c.access_latency_cycles for c in self.platform.hbm.channels
            )
            load += latency * sum(1 for p in program.packets() if p.load_bytes)
        compute = program.total_compute_cycles
        dispatch = DISPATCH_CYCLES * sum(1 for op in program.ops if op.packets)
        flush = 0
        if not self.config.memory_reuse:
            flushes = n_packets // self.config.buffers.n_segments
            flush = flushes * self.config.buffers.reuse_flush_cycles
        return AnalyticalEstimate(
            load_cycles=load,
            store_cycles=store,
            compute_cycles=compute,
            dispatch_cycles=dispatch,
            flush_cycles=flush,
        )

    # ------------------------------------------------------------------
    def check_simulation(self, program: Program, simulated_cycles: int,
                         slack: float = 0.35) -> bool:
        """True if ``simulated_cycles`` falls within the analytical brackets.

        ``slack`` widens the brackets (fractionally) to absorb effects the
        closed form ignores: channel contention, partially exposed access
        latency in the pipelined design, and pipeline fill/drain.
        """
        lower, upper = self.estimate(program).brackets()
        return (1 - slack) * lower <= simulated_cycles <= (1 + slack) * upper
