"""Declarative engine configuration and factory.

Before this module existed, standing up a serving engine meant
hand-wiring three objects — a :class:`~repro.serve.SchedulerConfig`, an
:class:`~repro.backend.ExecutionBackend` (with its interconnect model for
tensor-parallel runs) and the :class:`~repro.core.speedllm.SpeedLLM`
stack — in every caller: ``cli.py``, the examples, and each test.
:class:`EngineConfig` is the single declarative description of all of it;
:meth:`EngineConfig.build_engine` performs the assembly in one place.

>>> from repro.api import EngineConfig
>>> engine = EngineConfig(model="test-small", paged=True,
...                       max_vocab=512).build_engine()   # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

from ..backend import ExecutionBackend
from ..llama.config import LlamaConfig
from ..serve.scheduler import DEFAULT_KV_BUDGET_BYTES, SchedulerConfig
from ..sim.interconnect import InterconnectModel
from ..spec.config import SpecConfig
from .errors import FrontendError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.speedllm import SpeedLLM
    from ..obs.registry import MetricsRegistry
    from ..obs.tracer import Tracer
    from ..quant import QuantConfig
    from ..serve.engine import AsyncServingEngine, ServingEngine

__all__ = ["EngineConfig"]

#: Arrival policies understood by :meth:`EngineConfig.arrival_times`.
ARRIVAL_POLICIES = ("immediate", "poisson", "bursty")


@dataclass(frozen=True)
class EngineConfig:
    """Everything needed to build a serving engine, in one declaration."""

    # Model / platform preset ------------------------------------------
    model: Union[str, LlamaConfig] = "stories15M"
    variant: str = "full"
    seed: int = 0
    position_stride: int = 8
    max_vocab: Optional[int] = None

    # Scheduler / KV memory --------------------------------------------
    max_batch_tokens: int = 16
    max_running: int = 16
    prefill_chunk: int = 8
    kv_budget_bytes: int = DEFAULT_KV_BUDGET_BYTES
    paged: bool = False
    block_size: int = 16
    watermark_fraction: float = 0.05

    # Scheduling policy / chunked prefill ------------------------------
    #: Admission & preemption-victim ordering: "fifo" (strict arrival),
    #: "priority" (SLO tiers first) or "fairness" (priority with aging).
    policy: str = "fifo"
    fairness_aging_s: float = 0.1
    #: Share a per-step prefill token budget across requests so prompts
    #: ride along decode steps instead of monopolising them.
    chunked_prefill: bool = False
    #: Explicit per-step prefill budget (defaults to half the step's
    #: token budget when chunked prefill is on).
    prefill_chunk_tokens: Optional[int] = None

    # Speculative decoding ----------------------------------------------
    #: Draft-and-verify policy (:class:`repro.spec.SpecConfig`); None
    #: decodes one token per request per step.
    speculative: Optional[SpecConfig] = None

    # Quantisation -------------------------------------------------------
    #: How weights and KV are stored: ``None`` (the accelerator's
    #: default, the paper's int8 datapath with on-chip scales), a mode
    #: string (``"int8"`` / ``"int4"`` for the quantised subsystem,
    #: ``"fp32"`` for a full-precision datapath — the honest baseline
    #: quantised runs are compared against) or an explicit
    #: :class:`repro.quant.QuantConfig`.
    quant: Union[None, str, "QuantConfig"] = None
    #: Also store the KV cache group-quantised at INT8 (mode strings
    #: only; an explicit QuantConfig carries its own KV spec).
    quant_kv: bool = False
    #: Quantisation group size for mode strings.
    quant_group: int = 64
    #: Keep the classifier head (and a shared embedding table) at fp32
    #: instead of the default INT8 head.
    fp32_logits: bool = False

    # Observability ------------------------------------------------------
    #: Record cycle-level execution traces on the accelerator so the
    #: timeline export can merge hardware intervals under each step span
    #: (:meth:`repro.obs.Tracer.merge_cycle_trace`).  Off by default —
    #: traced steps defeat the compile cache's shape sharing.
    trace_cycles: bool = False

    # Compilation pipeline ----------------------------------------------
    #: Autotune the tiling plan per step shape (the compile cache stores
    #: the lowest-cycle candidate program); False keeps the fixed tiling.
    autotune: bool = False
    #: Context-bucket granularity of the compile cache; 1 compiles every
    #: exact shape (historical behaviour), larger values round attention
    #: windows up so steady-state steps reuse one program per bucket.
    ctx_bucket: int = 1

    # Execution backend -------------------------------------------------
    #: Override the simulated U280's HBM pseudo-channel count (None keeps
    #: the full 32).  Fewer channels make decode bytes-bound, the regime
    #: where weight/KV quantisation pays off most.
    hbm_channels: Optional[int] = None
    tensor_parallel: int = 1
    interconnect_gbps: float = 25.0
    interconnect_latency_us: float = 1.0

    # Arrival process ---------------------------------------------------
    #: "immediate" (everything at t=0), "poisson" (homogeneous process at
    #: ``arrival_rate``) or "bursty" (Markov-modulated Poisson: calm
    #: phases at ``arrival_rate`` alternating with bursts at
    #: ``burst_rate``).
    arrival_policy: str = "immediate"
    arrival_rate: Optional[float] = None
    #: Burst-phase arrival rate of the bursty policy; ``None`` takes the
    #: generator default (8x the calm rate).
    burst_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ctx_bucket < 1:
            raise FrontendError(
                f"ctx_bucket must be >= 1, got {self.ctx_bucket}")
        if self.tensor_parallel < 1:
            raise FrontendError(
                f"tensor_parallel must be >= 1, got {self.tensor_parallel}")
        if self.interconnect_gbps <= 0:
            raise FrontendError("interconnect_gbps must be positive")
        if self.interconnect_latency_us < 0:
            raise FrontendError("interconnect_latency_us must be >= 0")
        if self.position_stride <= 0:
            raise FrontendError("position_stride must be positive")
        if self.arrival_policy not in ARRIVAL_POLICIES:
            raise FrontendError(
                f"arrival_policy must be one of {ARRIVAL_POLICIES}, got "
                f"{self.arrival_policy!r}")
        if self.arrival_policy in ("poisson", "bursty") and (
                self.arrival_rate is None or self.arrival_rate <= 0):
            raise FrontendError(
                f"a {self.arrival_policy} arrival policy needs a positive "
                "arrival_rate")
        if self.burst_rate is not None:
            if self.arrival_policy != "bursty":
                raise FrontendError(
                    "burst_rate requires arrival_policy='bursty'")
            if self.burst_rate <= self.arrival_rate:
                raise FrontendError(
                    "burst_rate must exceed the calm arrival_rate")
        if self.hbm_channels is not None and self.hbm_channels < 1:
            raise FrontendError(
                f"hbm_channels must be >= 1, got {self.hbm_channels}")
        if self.quant in (None, "fp32") and (
                self.quant_kv or self.fp32_logits):
            raise FrontendError(
                "quant_kv / fp32_logits require a quant mode")
        # Resolve eagerly so bad modes fail at construction.
        try:
            self.quant_config()
        except (ValueError, TypeError) as exc:
            raise FrontendError(str(exc)) from None
        # Scheduler knobs are validated by SchedulerConfig itself; build
        # it eagerly so a bad EngineConfig fails at construction, not at
        # build_engine() time.
        try:
            self.scheduler_config()
        except ValueError as exc:
            raise FrontendError(str(exc)) from None

    # ------------------------------------------------------------------
    def quant_config(self) -> Optional["QuantConfig"]:
        """The resolved quantisation slice of this configuration:
        ``None`` leaves the accelerator's default datapath in place."""
        from ..quant import resolve_quant
        return resolve_quant(
            self.quant,
            group_size=self.quant_group,
            quant_kv=self.quant_kv,
            fp32_logits=self.fp32_logits,
        )

    def scheduler_config(self) -> SchedulerConfig:
        """The scheduler slice of this configuration."""
        return SchedulerConfig(
            max_batch_tokens=self.max_batch_tokens,
            max_running=self.max_running,
            prefill_chunk=self.prefill_chunk,
            kv_budget_bytes=self.kv_budget_bytes,
            paged=self.paged,
            block_tokens=self.block_size,
            watermark_fraction=self.watermark_fraction,
            speculative=self.speculative,
            policy=self.policy,
            fairness_aging_s=self.fairness_aging_s,
            chunked_prefill=self.chunked_prefill,
            prefill_chunk_tokens=self.prefill_chunk_tokens,
        )

    def build_llm(self) -> "SpeedLLM":
        """Build the model + accelerator stack this config describes."""
        from ..accel.config import AcceleratorConfig
        from ..core.speedllm import SpeedLLM
        quant = self.quant_config()
        accel_config = AcceleratorConfig.variant(
            self.variant,
            autotune_tiling=self.autotune,
            ctx_bucket=self.ctx_bucket,
            trace_enabled=self.trace_cycles,
            **({"quant": quant} if quant is not None else {}),
        )
        platform = None
        if self.hbm_channels is not None:
            from ..fpga.u280 import u280
            platform = u280(n_hbm_channels=self.hbm_channels)
        return SpeedLLM(
            model=self.model, variant=self.variant, seed=self.seed,
            position_stride=self.position_stride, max_vocab=self.max_vocab,
            accel_config=accel_config, platform=platform,
        )

    def build_engine(
        self,
        llm: Optional["SpeedLLM"] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> "ServingEngine":
        """Assemble scheduler, KV pool and backend into a serving engine.

        Pass a pre-built ``llm`` to reuse an existing stack (tests inject
        fixture checkpoints this way); otherwise :meth:`build_llm` runs.
        ``tracer`` / ``metrics`` attach the observability subsystem
        (:mod:`repro.obs`); both default to free no-ops.
        """
        from ..serve.engine import ServingEngine
        llm = llm or self.build_llm()
        interconnect = InterconnectModel(
            bandwidth_gbps=self.interconnect_gbps,
            latency_s=self.interconnect_latency_us * 1e-6)
        # Whether the model shards ``tensor_parallel`` ways is only known
        # here: an injected ``llm`` may carry another model than ``model``.
        try:
            backend = ExecutionBackend(
                llm.accelerator, self.tensor_parallel, interconnect)
        except ValueError as exc:
            raise FrontendError(str(exc)) from None
        return ServingEngine(llm, self.scheduler_config(), backend=backend,
                             tracer=tracer, metrics=metrics)

    def build_async_engine(
        self, llm: Optional["SpeedLLM"] = None
    ) -> "AsyncServingEngine":
        """Like :meth:`build_engine`, wrapped for asyncio callers."""
        from ..serve.engine import AsyncServingEngine
        return AsyncServingEngine(engine=self.build_engine(llm))

    # ------------------------------------------------------------------
    def arrival_times(
        self, n_requests: int, seed: Optional[int] = None
    ) -> Optional[List[float]]:
        """Arrival schedule for ``n_requests`` under the arrival policy.

        ``None`` means "all requests arrive at t=0" (the immediate
        policy); a poisson policy draws a reproducible schedule at
        ``arrival_rate`` requests per simulated second, and a bursty
        policy draws a Markov-modulated schedule whose calm phases run
        at ``arrival_rate`` and whose bursts run at ``burst_rate``.
        """
        if self.arrival_policy == "immediate":
            return None
        if self.arrival_policy == "bursty":
            from ..workloads.arrivals import bursty_arrival_times
            return bursty_arrival_times(
                n_requests, self.arrival_rate,
                burst_rate_per_s=self.burst_rate,
                seed=self.seed if seed is None else seed,
            )
        from ..workloads.arrivals import poisson_arrival_times
        return poisson_arrival_times(
            n_requests, self.arrival_rate,
            seed=self.seed if seed is None else seed,
        )
