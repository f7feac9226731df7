"""The execution backend: where a scheduler's step plan runs, and how fast.

The scheduler decides *what* runs each step — a list of
:class:`~repro.accel.batching.BatchSlot` token positions — and the
:class:`ExecutionBackend` decides *where and how fast*: it executes the
slots functionally and prices the step on ``tensor_parallel`` simulated
accelerators joined by a modelled ring interconnect.  One device is the
ordinary case of the same arithmetic, not a separate class: the
partition is the identity, collectives cost 0.0 s, every ``x tp`` is
``x 1``.

The partition is the Megatron layout of
:class:`~repro.graph.sharding.ShardSpec` (attention heads, FFN channels,
classifier rows and the KV cache split across shards) and a step's wall
clock is ``max-over-shards compute + collective time``.  The layout is
symmetric — every shard runs the same operator schedule over the same
batch — so one representative shard is simulated and stands for all.

The *functional* token stream is always computed on the full (unsharded)
model, so tokens are bit-identical at every degree: placement changes
timing (less compute per shard, new interconnect cost) and capacity
(each shard's KV budget holds ``kv_shards`` times more context), never
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..accel.batching import BatchSlot, batch_run_ids
from ..compile.pipeline import CompileWork, StepCompiler
from ..fpga.power import EnergyBreakdown
from ..graph.sharding import ShardSpec
from ..sim.interconnect import InterconnectModel
from ..sim.stats import RunCounters
from ..sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..accel.accelerator import SpeedLLMAccelerator

__all__ = ["BackendStep", "ExecutionBackend"]

#: Activations cross the interconnect in float32, matching the datapath.
_ACT_BYTES = 4


@dataclass
class BackendStep:
    """Functional and timing outcome of one batched step on a backend."""

    #: One array per slot: logits where the slot asked for them, the last
    #: hidden state otherwise (order matches the slot plan).
    outputs: List[np.ndarray]
    #: Wall-clock of the step on the simulated hardware, compute plus any
    #: collective time.
    seconds: float
    #: Compute portion of ``seconds`` (max over shards).
    compute_seconds: float
    #: Time spent in inter-shard collectives (0 on a single device).
    interconnect_seconds: float
    #: Activity counters aggregated over every shard.
    counters: RunCounters
    #: Busy cycles per engine, aggregated over every shard.
    engine_busy: Dict[str, int] = field(default_factory=dict)
    #: Per-shard MPE utilisation during the step (length ``n_shards``).
    shard_utilization: List[float] = field(default_factory=list)
    #: Compilation work the step did: its one compile-cache lookup (the
    #: functional pass never enters the compiler).  Carried per step so
    #: the engine that caused it is charged, however many share the
    #: compiler.
    compile_work: CompileWork = field(default_factory=CompileWork)
    #: Cycle-level execution trace of the step, present only when the
    #: accelerator config enables tracing
    #: (``AcceleratorConfig.trace_enabled``).  May be a cached object
    #: shared across steps — consumers must copy, never mutate.
    trace: Optional[Trace] = None


class ExecutionBackend:
    """Executes scheduler step plans on ``tensor_parallel`` accelerators.

    Raises ``ValueError`` for a degree below one, or one that the model's
    heads, FFN channels or vocabulary do not divide by.
    """

    def __init__(
        self,
        accelerator: "SpeedLLMAccelerator",
        tensor_parallel: int = 1,
        interconnect: Optional[InterconnectModel] = None,
    ) -> None:
        #: The full (unsharded) accelerator: executes slots functionally.
        self.accelerator = accelerator
        #: Model the backend serves (full, unsharded configuration).
        self.model_config = accelerator.model_config
        #: Platform of one device; its clock converts cycles to seconds.
        self.platform = accelerator.platform
        self.shard = ShardSpec.from_config(self.model_config, tensor_parallel)
        self.interconnect = interconnect or InterconnectModel()
        #: Compiles and cycle-simulates the step as one device executes
        #: it (one representative shard's cycle count is the max over
        #: shards).  One device shares the accelerator's own compiler,
        #: and with it the cache ``simulate_generation`` warms.
        self.compiler = accelerator.timing if tensor_parallel == 1 else (
            StepCompiler(self.model_config, accelerator.config,
                         self.platform, shard=self.shard))

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of accelerator devices executing each step."""
        return self.shard.tp

    @property
    def kv_shards(self) -> int:
        """KV-capacity multiplier the sharding provides.

        The scheduler divides per-request KV footprints by this factor:
        each shard stores ``1 / kv_shards`` of every cached position, so
        a fixed per-device KV budget holds ``kv_shards`` times more
        aggregate context.  Equal to ``n_shards`` except when grouped-
        query attention forces KV-head replication across shards.
        """
        return self.shard.kv_shrink(self.model_config)

    # ------------------------------------------------------------------
    def collective_seconds(self, n_slots: int, n_logits: int) -> float:
        """Interconnect time of one batched step (0.0 on one device).

        Two ring all-reduces per decoder layer carry every slot's
        full-``dim`` activation vector; each logits-producing slot pays
        one all-gather of its vocab-parallel logit slices.
        """
        cfg = self.model_config
        seconds = 2 * cfg.n_layers * self.interconnect.all_reduce_seconds(
            n_slots * cfg.dim * _ACT_BYTES, self.n_shards)
        return seconds + n_logits * self.interconnect.all_gather_seconds(
            cfg.vocab_size * _ACT_BYTES, self.n_shards)

    def execute_step(
        self,
        slots: Sequence[BatchSlot],
        kv_block_tokens: Optional[int] = None,
    ) -> BackendStep:
        """Execute one batched step: functional outputs plus timing.

        The functional pass runs on the full (unsharded) model and never
        enters the compiler, so the :class:`CompileWork` bracket covers
        exactly the step's one ``simulate_step`` lookup.
        """
        outputs = self.accelerator.execute_slots(slots)
        before = self.compiler.work()
        timing = self.compiler.simulate_step(
            [slot.pos for slot in slots],
            [slot.need_logits for slot in slots],
            kv_block_tokens,
            batch_run_ids(slots),
        )
        compile_work = self.compiler.work() - before
        tp = self.n_shards
        compute_seconds = self.platform.cycles_to_seconds(timing.cycles)
        interconnect_seconds = self.collective_seconds(
            len(slots), sum(slot.need_logits for slot in slots))
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
            **{name: joules * tp for name, joules in vars(per_board).items()})

    def describe(self) -> Dict[str, object]:
        """Flat description for reports and JSON payloads."""
        if self.n_shards == 1:
            return {
                "backend": "local",
                "n_shards": 1,
                "variant": self.accelerator.config.name,
            }
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
    return RunCounters(**{name: value * factor // divisor
                          for name, value in counters.as_dict().items()})
