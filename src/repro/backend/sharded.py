"""Tensor-parallel execution backend over a modelled ring interconnect.

:class:`ShardedBackend` executes every batched step on ``tp`` simulated
accelerator shards.  The partition is the Megatron layout captured by
:class:`~repro.graph.sharding.ShardSpec`: attention heads, FFN channels
and classifier rows split across shards, and each shard owns the
correspondingly narrowed slice of the KV cache.  Per-shard step time
comes from the same compile-and-simulate pipeline as the single-device
path — a :class:`~repro.compile.pipeline.StepCompiler` built over the
*sharded* decode-step graph — and the step's wall clock is

``max-over-shards compute  +  collective time``

where the collectives are the two ring all-reduces per decoder layer
(attention and FFN residuals, one activation vector per batch slot) plus
one logits all-gather per logits-producing slot, priced by the
:class:`~repro.sim.interconnect.InterconnectModel`.  Because the layout
is symmetric — every shard runs the same operator schedule over the same
batch — one representative shard is simulated and stands for all of
them, which keeps the program caches as small as the local backend's.

Functionally the step still executes on the full model (the backend
reuses the unsharded accelerator's graph executor), so the generated
tokens are identical to :class:`~repro.backend.local.LocalBackend` for
every tensor-parallel degree.  Sharding changes *timing* (less compute
per shard, new interconnect cost) and *capacity* (each shard's KV budget
holds ``kv_shards`` times more aggregate context), never token values.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..accel.accelerator import SpeedLLMAccelerator
from ..accel.batching import BatchSlot
from ..compile.pipeline import StepCompiler
from ..fpga.power import EnergyBreakdown
from ..graph.sharding import ShardSpec
from ..sim.interconnect import InterconnectModel
from ..sim.stats import RunCounters
from .base import BackendStep, ExecutionBackend

__all__ = ["ShardedBackend"]

#: Activations cross the interconnect in float32, matching the datapath.
_ACT_BYTES = 4


class ShardedBackend(ExecutionBackend):
    """Tensor-parallel execution over ``tp`` simulated accelerators."""

    def __init__(
        self,
        accelerator: SpeedLLMAccelerator,
        tensor_parallel: int,
        interconnect: Optional[InterconnectModel] = None,
    ) -> None:
        if tensor_parallel < 2:
            raise ValueError(
                "ShardedBackend needs tensor_parallel >= 2; use "
                "LocalBackend for single-device execution"
            )
        self.accelerator = accelerator
        self.model_config = accelerator.model_config
        self.platform = accelerator.platform
        self.shard = ShardSpec.from_config(self.model_config, tensor_parallel)
        self.interconnect = interconnect or InterconnectModel()
        #: Step compiler of one shard; the layout is symmetric so one
        #: representative shard's cycle count is the max over shards.
        self.compiler = StepCompiler(
            self.model_config,
            accelerator.config,
            self.platform,
            shard=self.shard,
        )

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.shard.tp

    @property
    def kv_shards(self) -> int:
        return self.shard.kv_shrink(self.model_config)

    # ------------------------------------------------------------------
    def collective_seconds(self, n_slots: int, n_logits: int) -> float:
        """Interconnect time of one batched step.

        Two ring all-reduces per decoder layer carry every slot's
        full-``dim`` activation vector; each logits-producing slot pays
        one all-gather of its vocab-parallel logit slices.
        """
        if n_slots <= 0:
            return 0.0
        cfg = self.model_config
        residual_bytes = n_slots * cfg.dim * _ACT_BYTES
        seconds = 2 * cfg.n_layers * self.interconnect.all_reduce_seconds(
            residual_bytes, self.n_shards
        )
        if n_logits > 0:
            logits_bytes = cfg.vocab_size * _ACT_BYTES
            seconds += n_logits * self.interconnect.all_gather_seconds(
                logits_bytes, self.n_shards
            )
        return seconds

    def execute_step(
        self,
        slots: Sequence[BatchSlot],
        kv_block_tokens: Optional[int] = None,
    ) -> BackendStep:
        outputs, timing, compile_work = self.run_slots(slots, kv_block_tokens)
        tp = self.n_shards
        compute_seconds = self.platform.cycles_to_seconds(timing.cycles)
        interconnect_seconds = self.collective_seconds(
            len(slots), sum(slot.need_logits for slot in slots)
        )
        return BackendStep(
            outputs=outputs,
            seconds=compute_seconds + interconnect_seconds,
            compute_seconds=compute_seconds,
            interconnect_seconds=interconnect_seconds,
            counters=_scale_counters(timing.counters, tp),
            engine_busy={k: v * tp for k, v in timing.engine_busy.items()},
            shard_utilization=[timing.mpe_utilization] * tp,
            compile_work=compile_work,
            trace=timing.trace,
        )

    # ------------------------------------------------------------------
    def energy_for(
        self,
        counters: RunCounters,
        busy_cycles: float,
        elapsed_seconds: float,
    ) -> EnergyBreakdown:
        """Energy across all ``tp`` boards.

        ``counters``/``busy_cycles`` arrive aggregated over shards (the
        engine accumulates :class:`BackendStep` values), so one board's
        share is computed and scaled back up — every board burns static
        power for the whole run.
        """
        tp = self.n_shards
        per_board = self.accelerator.energy_for(
            _scale_counters(counters, 1, divisor=tp),
            busy_cycles / tp,
            elapsed_seconds,
        )
        return EnergyBreakdown(
            static_j=per_board.static_j * tp,
            active_j=per_board.active_j * tp,
            compute_j=per_board.compute_j * tp,
            sfu_j=per_board.sfu_j * tp,
            onchip_j=per_board.onchip_j * tp,
            offchip_j=per_board.offchip_j * tp,
        )

    def describe(self) -> dict:
        return {
            "backend": "sharded",
            "n_shards": self.n_shards,
            "kv_shards": self.kv_shards,
            "variant": self.accelerator.config.name,
            **{f"interconnect_{k}": v
               for k, v in self.interconnect.describe().items()},
        }


def _scale_counters(
    counters: RunCounters, factor: int, divisor: int = 1
) -> RunCounters:
    """Element-wise ``value * factor // divisor`` over a counter set."""
    scaled = RunCounters()
    for name, value in counters.as_dict().items():
        setattr(scaled, name, value * factor // divisor)
    return scaled
