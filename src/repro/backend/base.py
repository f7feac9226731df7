"""The execution-backend seam between the serving engine and the hardware.

The scheduler decides *what* runs each step — a list of
:class:`~repro.accel.batching.BatchSlot` token positions — and an
:class:`ExecutionBackend` decides *where and how fast* it runs: it
executes the slots functionally (producing logits for the positions that
sample) and prices the step on its device model.  The engine only ever
talks to this interface, so single-device and multi-accelerator execution
are interchangeable:

* :class:`~repro.backend.local.LocalBackend` — one simulated
  :class:`~repro.accel.accelerator.SpeedLLMAccelerator`, the PR 1 path
  extracted behind the seam (behaviour-identical);
* :class:`~repro.backend.sharded.ShardedBackend` — tensor-parallel
  execution over ``tp`` simulated accelerators joined by a modelled ring
  interconnect.

Whatever the backend, the *functional* token stream is computed on the
full (unsharded) model, so generated tokens are bit-identical across
backends — execution placement changes timing and capacity, never values.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accel.batching import BatchSlot, batch_run_ids
from ..accel.pipeline import StepResult
from ..compile.pipeline import CompileWork, StepCompiler
from ..fpga.power import EnergyBreakdown
from ..fpga.u280 import FpgaPlatform
from ..llama.config import LlamaConfig
from ..sim.stats import RunCounters
from ..sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..accel.accelerator import SpeedLLMAccelerator

__all__ = ["BackendStep", "ExecutionBackend"]


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
    #: Compilation work the step did (its one compile-cache lookup and
    #: any functional graph it built).  Carried per step so the engine
    #: that caused it is charged, however many share the compiler.
    compile_work: CompileWork = field(default_factory=CompileWork)
    #: Cycle-level execution trace of the step, present only when the
    #: accelerator config enables tracing
    #: (``AcceleratorConfig.trace_enabled``).  May be a cached object
    #: shared across steps — consumers must copy, never mutate.
    trace: Optional[Trace] = None


class ExecutionBackend(abc.ABC):
    """Executes scheduler step plans on some arrangement of accelerators."""

    #: The full (unsharded) accelerator that executes slots functionally.
    accelerator: "SpeedLLMAccelerator"
    #: Model the backend serves (full, unsharded configuration).
    model_config: LlamaConfig
    #: Platform of one device; its clock converts cycles to seconds.
    platform: FpgaPlatform
    #: Compiles and cycle-simulates the step as one device executes it.
    compiler: StepCompiler

    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def n_shards(self) -> int:
        """Number of accelerator devices executing each step."""

    @property
    def kv_shards(self) -> int:
        """KV-capacity multiplier the sharding provides.

        The scheduler divides per-request KV footprints by this factor:
        each shard stores ``1 / kv_shards`` of every cached position, so
        a fixed per-device KV budget holds ``kv_shards`` times more
        aggregate context.  Equal to ``n_shards`` except when grouped-
        query attention forces KV-head replication across shards.
        """
        return 1

    @abc.abstractmethod
    def execute_step(
        self,
        slots: Sequence[BatchSlot],
        kv_block_tokens: Optional[int] = None,
    ) -> BackendStep:
        """Execute one batched step: functional outputs plus timing."""

    def run_slots(
        self,
        slots: Sequence[BatchSlot],
        kv_block_tokens: Optional[int],
    ) -> Tuple[List[np.ndarray], StepResult, CompileWork]:
        """Functional outputs of a step plan, one device's timing of it,
        and the compilation work both did on this backend's compiler.

        The functional pass always runs on the full (unsharded) model:
        token values must not depend on the execution placement.
        """
        before = self.compiler.work()
        outputs = self.accelerator.execute_slots(slots)
        result = self.compiler.simulate_step(
            [slot.pos for slot in slots],
            [slot.need_logits for slot in slots],
            kv_block_tokens,
            batch_run_ids(slots),
        )
        return outputs, result, self.compiler.work() - before

    @abc.abstractmethod
    def energy_for(
        self,
        counters: RunCounters,
        busy_cycles: float,
        elapsed_seconds: float,
    ) -> EnergyBreakdown:
        """Total energy across every device of the backend."""

    def describe(self) -> Dict[str, object]:
        """Flat description for reports and JSON payloads."""
        return {"backend": type(self).__name__, "n_shards": self.n_shards}
