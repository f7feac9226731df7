"""Single-device execution backend.

The mechanical extraction of the PR 1 engine↔accelerator coupling: one
:class:`~repro.accel.accelerator.SpeedLLMAccelerator` executes every
slot functionally and simulates the merged weight-stationary program for
timing.  Behaviour (tokens, cycles, counters, energy) is identical to
the pre-seam engine.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..accel.accelerator import SpeedLLMAccelerator
from ..accel.batching import BatchSlot
from ..fpga.power import EnergyBreakdown
from ..sim.stats import RunCounters
from .base import BackendStep, ExecutionBackend

__all__ = ["LocalBackend"]


class LocalBackend(ExecutionBackend):
    """Runs every batched step on one simulated accelerator."""

    def __init__(self, accelerator: SpeedLLMAccelerator) -> None:
        self.accelerator = accelerator
        self.model_config = accelerator.model_config
        self.platform = accelerator.platform
        self.compiler = accelerator.timing

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return 1

    def execute_step(
        self,
        slots: Sequence[BatchSlot],
        kv_block_tokens: Optional[int] = None,
    ) -> BackendStep:
        outputs, timing, compile_work = self.run_slots(slots, kv_block_tokens)
        seconds = self.platform.cycles_to_seconds(timing.cycles)
        return BackendStep(
            outputs=outputs,
            seconds=seconds,
            compute_seconds=seconds,
            interconnect_seconds=0.0,
            counters=timing.counters,
            engine_busy=dict(timing.engine_busy),
            shard_utilization=[timing.mpe_utilization],
            compile_work=compile_work,
            trace=timing.trace,
        )

    def energy_for(
        self,
        counters: RunCounters,
        busy_cycles: float,
        elapsed_seconds: float,
    ) -> EnergyBreakdown:
        return self.accelerator.energy_for(
            counters, busy_cycles, elapsed_seconds
        )

    def describe(self) -> dict:
        return {
            "backend": "local",
            "n_shards": 1,
            "variant": self.accelerator.config.name,
        }
