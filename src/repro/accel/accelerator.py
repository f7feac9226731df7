"""Top-level SpeedLLM accelerator model.

:class:`SpeedLLMAccelerator` ties every piece together for one design
point: it quantises the model weights as its ``quant`` config stores
them (built over a checkpoint; one built over a config alone times
only), builds decode-step graphs, optionally fuses them, compiles them
to tile programs, simulates the programs on the pipeline executor, and
accumulates latency / traffic / energy over a whole generation (prefill +
decode), while the functional graph executor produces the actual tokens.

Functionally the accelerator is a *model* in the sense of
:mod:`repro.llama.generation`: it answers ``forward(token, pos, cache)``
and ``new_cache()``, so the decode loop, the teacher-forced comparison
and the cross-entropy loop written over :class:`~repro.llama.model.
LlamaModel` run over it unchanged.

The per-position cost of a decode step varies only through the attention
window length, and it varies smoothly, so long generations can be
simulated with a ``position_stride > 1``: positions at the stride points
are simulated cycle-accurately and the positions in between are
interpolated linearly.  ``position_stride=1`` (the default) simulates
every position exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..fpga.power import EnergyBreakdown
from ..fpga.resources import ResourceError, UtilizationReport
from ..compile.pipeline import StepCompiler
from ..fpga.u280 import FpgaPlatform, u280
from ..graph.builder import GraphBuilder
from ..graph.fusion import fuse_graph
from ..graph.graph import Graph
from ..llama import generation
from ..llama.checkpoint import Checkpoint
from ..llama.config import LlamaConfig
from ..llama.kv_cache import KVCache
from ..llama.quantization import dequantize, quantize
from ..llama.sampler import Sampler
from ..sim.stats import RunCounters
from .batching import BatchSlot
from .config import AcceleratorConfig
from .executor import GraphExecutor

__all__ = ["SpeedLLMAccelerator", "GenerationMetrics", "AcceleratorGeneration"]


@dataclass
class GenerationMetrics:
    """Latency / throughput / energy of one simulated generation."""

    variant: str
    n_prompt: int
    n_generated: int
    prefill_cycles: int
    decode_cycles: int
    prefill_seconds: float
    decode_seconds: float
    counters: RunCounters
    energy: EnergyBreakdown
    mean_mpe_utilization: float = 0.0

    @property
    def total_cycles(self) -> int:
        return self.prefill_cycles + self.decode_cycles

    @property
    def total_seconds(self) -> float:
        return self.prefill_seconds + self.decode_seconds

    @property
    def decode_tokens_per_second(self) -> float:
        """Throughput as the paper defines it (decode stage only)."""
        if self.decode_seconds <= 0:
            return 0.0
        return self.n_generated / self.decode_seconds

    @property
    def tokens_per_joule(self) -> float:
        """Energy efficiency as the paper defines it."""
        if self.energy.total_j <= 0:
            return 0.0
        return self.n_generated / self.energy.total_j

    @property
    def average_power_w(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.energy.total_j / self.total_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "variant": self.variant,
            "n_prompt": self.n_prompt,
            "n_generated": self.n_generated,
            "total_cycles": self.total_cycles,
            "total_seconds": self.total_seconds,
            "decode_tokens_per_second": self.decode_tokens_per_second,
            "tokens_per_joule": self.tokens_per_joule,
            "average_power_w": self.average_power_w,
            "hbm_bytes": self.counters.hbm_bytes,
            "mean_mpe_utilization": self.mean_mpe_utilization,
        }


@dataclass
class AcceleratorGeneration:
    """Functional + timing outcome of :meth:`SpeedLLMAccelerator.generate`."""

    prompt_tokens: List[int]
    generated_tokens: List[int]
    metrics: GenerationMetrics

    @property
    def n_generated(self) -> int:
        return len(self.generated_tokens)


class SpeedLLMAccelerator:
    """One accelerator design point bound to one model.

    ``model`` is a :class:`~repro.llama.checkpoint.Checkpoint` or, for a
    timing-only design point, just its :class:`~repro.llama.config.
    LlamaConfig`: timing, energy and resources depend on the shapes
    alone.  Functional calls need the checkpoint's weights and raise
    ``ValueError`` without them.
    """

    def __init__(
        self,
        model: Checkpoint | LlamaConfig,
        config: Optional[AcceleratorConfig] = None,
        platform: Optional[FpgaPlatform] = None,
    ) -> None:
        if isinstance(model, LlamaConfig):
            self.checkpoint: Optional[Checkpoint] = None
            self.model_config = model
        else:
            self.checkpoint = model
            self.model_config = model.config
        self.config = config or AcceleratorConfig()
        self.platform = platform or u280()
        #: Graph/program compilation and cycle simulation, cached: the
        #: unsharded step compiler of this design point.  Execution
        #: backends call it directly, and build further (tensor-parallel
        #: sharded) compilers of the same design point beside it.
        self.timing = StepCompiler(
            self.model_config, self.config, self.platform
        )

    @cached_property
    def _functional_weights(self) -> Dict[str, np.ndarray]:
        """Weights the datapath computes with — like the value graph,
        built on first functional use, so timing-only runs never pay.

        Every tensor is quantised and dequantised at the spec
        ``config.quant`` resolves for it (at the model's groups), so the
        functional result reflects the stored precision; a tensor it
        keeps in float32 is passed through.
        """
        if self.checkpoint is None:
            raise ValueError(
                f"this accelerator was built from the {self.model_config.name!r} "
                "config alone, for timing: functional execution needs a "
                "checkpoint with its weights")
        quant = self.config.quant.for_model(self.model_config)
        shared = self.model_config.shared_classifier
        weights = {}
        for name, tensor in self.checkpoint.weights.items():
            spec = quant.spec_for(
                name,
                classifier=shared and name == "tok_embeddings.weight",
                ndim=tensor.ndim,
            )
            weights[name] = tensor if spec is None else dequantize(quantize(tensor, spec))
        return weights

    @cached_property
    def _graph_executor(self) -> GraphExecutor:
        return GraphExecutor(self.model_config, self._functional_weights)

    # ------------------------------------------------------------------
    def functional_checkpoint(self) -> Checkpoint:
        """Checkpoint holding the weights the datapath actually computes with.

        Where ``config.quant`` quantises a tensor these are the
        dequantised values; a CPU reference run over this checkpoint is
        bit-comparable with the accelerator's functional output.
        """
        return Checkpoint(config=self.model_config,
                          weights=dict(self._functional_weights))

    # ------------------------------------------------------------------
    def resource_report(self) -> UtilizationReport:
        """Utilisation of the design's footprint on the platform.

        The footprint is :meth:`AcceleratorConfig.resources`, the one the
        design-space explorer fits; :class:`ResourceError` if it does not
        fit the platform.
        """
        used, total = self.config.resources(), self.platform.resources
        if not used.fits_in(total):
            raise ResourceError(
                f"design {self.config.name!r} ({used.as_dict()}) exceeds the "
                f"device budget {total.as_dict()}")
        return UtilizationReport(total=total, used=used)

    # ------------------------------------------------------------------
    # Timing simulation
    # ------------------------------------------------------------------
    def _sample_positions(self, n_positions: int, stride: int) -> List[int]:
        if stride <= 0:
            raise ValueError("position_stride must be positive")
        sampled = sorted(set(range(0, n_positions, stride)) | {n_positions - 1})
        return sampled

    def simulate_generation(
        self,
        n_prompt: int,
        n_generated: int,
        position_stride: int = 1,
    ) -> GenerationMetrics:
        """Simulate the timing of prefill (``n_prompt``) + decode (``n_generated``).

        Positions are simulated at ``position_stride`` granularity and
        interpolated in between (see the module docstring).
        """
        if n_prompt <= 0:
            raise ValueError("n_prompt must be positive")
        if n_generated < 0:
            raise ValueError("n_generated must be >= 0")
        total_positions = n_prompt + n_generated
        self.model_config.check_positions(total_positions)

        sampled = self._sample_positions(total_positions, position_stride)
        results = {pos: self.timing.simulate_step([pos]) for pos in sampled}
        cycles_at = {pos: results[pos].cycles for pos in sampled}

        def interpolated_cycles(pos: int) -> float:
            if pos in cycles_at:
                return float(cycles_at[pos])
            idx = bisect.bisect_left(sampled, pos)
            lo, hi = sampled[idx - 1], sampled[idx]
            frac = (pos - lo) / (hi - lo)
            return cycles_at[lo] + frac * (cycles_at[hi] - cycles_at[lo])

        prefill_cycles = sum(interpolated_cycles(p) for p in range(n_prompt))
        decode_cycles = sum(
            interpolated_cycles(p) for p in range(n_prompt, total_positions)
        )

        # Aggregate counters: scale each sampled step's counters by the
        # number of positions it represents.
        counters = RunCounters()
        weights = self._position_weights(total_positions, sampled)
        utilizations: List[float] = []
        busy_cycles = 0.0
        for pos in sampled:
            step = results[pos]
            w = weights[pos]
            scaled = RunCounters()
            for name, value in step.counters.as_dict().items():
                setattr(scaled, name, int(round(value * w)))
            counters = counters + scaled
            utilizations.append(step.mpe_utilization)
            busy_cycles += w * (
                step.engine_busy.get("mpe", 0) + step.engine_busy.get("sfu", 0)
            )

        prefill_seconds = self.platform.cycles_to_seconds(int(round(prefill_cycles)))
        decode_seconds = self.platform.cycles_to_seconds(int(round(decode_cycles)))
        total_seconds = prefill_seconds + decode_seconds
        energy = self.energy_for(counters, busy_cycles, total_seconds)
        return GenerationMetrics(
            variant=self.config.name,
            n_prompt=n_prompt,
            n_generated=n_generated,
            prefill_cycles=int(round(prefill_cycles)),
            decode_cycles=int(round(decode_cycles)),
            prefill_seconds=prefill_seconds,
            decode_seconds=decode_seconds,
            counters=counters,
            energy=energy,
            # Each sampled step counts for the positions it stands in for
            # (at stride 1 every weight is 1 and this is the plain mean).
            mean_mpe_utilization=float(np.average(
                utilizations, weights=[weights[pos] for pos in sampled])),
        )

    def energy_for(
        self,
        counters: RunCounters,
        busy_cycles: float,
        elapsed_seconds: float,
    ) -> EnergyBreakdown:
        """Board energy for a run described by its counters and busy time.

        Single source of truth for feeding the platform energy model —
        both single-request generation and the batched serving engine
        aggregate their step counters through this.
        """
        busy_seconds = min(
            elapsed_seconds,
            self.platform.cycles_to_seconds(int(round(busy_cycles))),
        )
        return self.platform.energy_model().energy(
            elapsed_seconds=elapsed_seconds,
            clock_mhz=self.platform.clock_mhz,
            int8_macs=counters.int8_macs,
            sfu_flops=counters.sfu_flops,
            onchip_bytes=counters.onchip_bytes,
            hbm_bytes=counters.hbm_bytes,
            busy_seconds=busy_seconds,
        )

    @staticmethod
    def _position_weights(total_positions: int, sampled: Sequence[int]) -> Dict[int, float]:
        """How many real positions each sampled position stands in for."""
        weights = {pos: 0.0 for pos in sampled}
        for pos in range(total_positions):
            if pos in weights:
                weights[pos] += 1.0
                continue
            idx = bisect.bisect_left(sampled, pos)
            lo, hi = sampled[idx - 1], sampled[idx]
            frac = (pos - lo) / (hi - lo)
            weights[lo] += 1.0 - frac
            weights[hi] += frac
        return weights

    # ------------------------------------------------------------------
    # Functional generation
    # ------------------------------------------------------------------
    def generate(
        self,
        prompt_tokens: Sequence[int],
        max_new_tokens: int,
        sampler: Optional[Sampler] = None,
        stop_at_eos: bool = True,
        position_stride: int = 1,
    ) -> AcceleratorGeneration:
        """Generate tokens functionally and report simulated timing/energy."""
        result = generation.generate(
            self, prompt_tokens, max_new_tokens,
            sampler=sampler, stop_at_eos=stop_at_eos)
        metrics = self.simulate_generation(
            n_prompt=result.n_prompt,
            n_generated=result.n_generated,
            position_stride=position_stride,
        )
        return AcceleratorGeneration(
            prompt_tokens=result.prompt_tokens,
            generated_tokens=result.generated_tokens,
            metrics=metrics,
        )

    def new_cache(self) -> KVCache:
        """A fresh KV cache spanning this model's context window."""
        return KVCache(self.model_config)

    def forward(
        self,
        token: int,
        pos: int,
        cache: KVCache,
        need_logits: bool = True,
    ) -> np.ndarray:
        """Functionally execute one token position against ``cache``:
        the logits, or the last hidden state when ``need_logits`` is off.
        The one-slot case of :meth:`execute_slots`."""
        return self.execute_slots([BatchSlot(token, pos, cache, need_logits)])[0]

    @cached_property
    def _value_graph(self) -> Graph:
        """The context-free step graph values come from, built at context
        0 outside the compiler on first functional use: the attention
        window is ``pos + 1`` whatever the graph was built for, and
        nothing the compiler prices changes a value."""
        graph = GraphBuilder(self.model_config).build_decode_step(0)
        return fuse_graph(graph) if self.config.operator_fusion else graph

    def execute_slots(self, slots: Sequence[BatchSlot]) -> List[np.ndarray]:
        """Functionally execute one batched step of token positions.

        Computed in the order the timing model charges it (weight
        stationary: every operator over all slots, each block of at most
        512 KiB of a weight matrix applied to every slot before the next
        is read, each slot's attention against its own KV cache), so a
        request may contribute several consecutive positions — in
        increasing order — to a step.  Returns one array per slot, bit for
        bit what the slot yields alone at any BLAS thread count: the
        logits where asked for, the last hidden state otherwise.  A
        rejected step raises before any cache is written.  Timing for the
        same step comes from ``self.timing.simulate_step``.
        """
        return self._graph_executor.execute_step(self._value_graph, slots)
