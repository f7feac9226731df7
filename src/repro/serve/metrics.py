"""Per-request and aggregate metrics of a serving run.

Latency numbers are simulated seconds on the engine clock — the time the
modelled accelerator would have taken — so they are directly comparable
with :class:`~repro.accel.accelerator.GenerationMetrics` from one-shot
generation.  Aggregates use the distribution helpers from
:mod:`repro.core.metrics` (p50/p95 via :func:`~repro.core.metrics.percentile`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.metrics import LatencySummary, merge_sum
from ..fpga.power import EnergyBreakdown
from ..sim.stats import RunCounters
from .request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scheduler import PreemptionEvent

__all__ = ["Admission", "RequestMetrics", "RequestStep", "ServeReport",
           "StepRecord", "StepTotals"]


@dataclass(frozen=True)
class RequestMetrics:
    """Outcome of one served request."""

    request_id: str
    prompt: str
    text: str
    prompt_tokens: List[int]
    generated_tokens: List[int]
    queue_wait_s: float
    time_to_first_token_s: float
    latency_s: float
    #: SLO tier the request was served under (smaller = more urgent).
    priority: int = 0
    #: Gaps between consecutive committed tokens (simulated seconds);
    #: the tier-level inter-token-latency percentiles pool these.
    inter_token_latencies_s: List[float] = field(default_factory=list)
    n_preemptions: int = 0
    prefix_hit_tokens: int = 0
    #: Why the request retired: "stop" (EOS / stop sequence) or "length".
    finish_reason: Optional[str] = None
    #: Speculative decoding: draft tokens this request's verify runs
    #: scored, and how many of them were accepted (zero when spec is off).
    draft_tokens_proposed: int = 0
    draft_tokens_accepted: int = 0

    @classmethod
    def from_request(cls, request: Request, text: str) -> "RequestMetrics":
        if not request.is_finished:
            raise ValueError(
                f"request {request.request_id!r} has not finished"
            )
        return cls(
            request_id=request.request_id,
            prompt=request.prompt,
            text=text,
            prompt_tokens=list(request.prompt_tokens),
            generated_tokens=list(request.generated_tokens),
            queue_wait_s=request.queue_wait or 0.0,
            time_to_first_token_s=request.time_to_first_token or 0.0,
            latency_s=request.latency or 0.0,
            priority=request.priority,
            inter_token_latencies_s=request.inter_token_latencies,
            n_preemptions=request.n_preemptions,
            prefix_hit_tokens=request.prefix_hit_tokens,
            finish_reason=request.finish_reason,
            draft_tokens_proposed=request.draft_tokens_proposed,
            draft_tokens_accepted=request.draft_tokens_accepted,
        )

    @property
    def n_generated(self) -> int:
        return len(self.generated_tokens)

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for table rendering / JSON export."""
        return {
            "request": self.request_id,
            "priority": self.priority,
            "prompt_tokens": len(self.prompt_tokens),
            "generated_tokens": self.n_generated,
            "queue_wait_ms": self.queue_wait_s * 1e3,
            "ttft_ms": self.time_to_first_token_s * 1e3,
            "latency_ms": self.latency_s * 1e3,
            "finish_reason": self.finish_reason,
        }


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 over an empty denominator."""
    return numerator / denominator if denominator > 0 else 0.0


@dataclass
class StepTotals:
    """Additive serving counters: one step's totals, or any sum of them.

    The engine builds one per executed step (``n_steps == 1``, carried
    by its :class:`StepRecord`) and ``+`` is the only way two meet: an
    engine's total is the sum of its steps', a cluster's pool the sum of
    its engines' totals.
    :class:`ServeReport`, the ``speedllm_*`` registry series and the
    ``step`` span are views of these fields, so a counter is declared
    here once.
    """

    n_steps: int = 0
    #: Token positions executed across those steps.
    total_slots: int = 0
    #: Most requests in flight at once; summed over engines it is an
    #: upper bound on concurrency (the peaks need not coincide).
    peak_running: int = 0
    #: KV-budget utilisation sampled once per step, summed.
    kv_utilization_sum: float = 0.0
    n_preemptions: int = 0
    prefix_hit_tokens: int = 0
    total_prefill_tokens: int = 0
    # Execution-backend accounting (simulated seconds).
    compute_seconds: float = 0.0
    interconnect_seconds: float = 0.0
    #: MPE + SFU busy cycles over every shard (the energy model's input).
    busy_cycles: float = 0.0
    counters: RunCounters = field(default_factory=RunCounters)
    #: Per-shard MPE utilisation, summed over steps.
    shard_utilization_sums: List[float] = field(default_factory=list)
    # What this engine's own compile lookups (one per step) cost,
    # however many share the compiler (:class:`~repro.compile.CompileWork`).
    compile_cache_misses: int = 0
    compile_cache_evictions: int = 0
    autotune_searches: int = 0
    autotune_candidates: int = 0
    autotune_wins: int = 0
    #: Wall-clock spent inside compilation phases (real seconds, not
    #: simulated ones — this is host-side compile cost).
    compile_phase_seconds: Dict[str, float] = field(default_factory=dict)
    # Speculative-decoding accounting (all zero when spec is off).
    #: Decode turns (per-request verify/commit events) over the run.
    spec_decode_steps: int = 0
    #: Tokens committed by those decode turns (>= spec_decode_steps).
    spec_committed_tokens: int = 0
    spec_draft_tokens: int = 0
    spec_accepted_tokens: int = 0

    def __add__(self, other: "StepTotals") -> "StepTotals":
        """Field-wise sum (mappings key-wise, shard lists element-wise)."""
        summed: Dict[str, object] = {}
        for spec in dataclasses.fields(StepTotals):
            a, b = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(a, dict):
                summed[spec.name] = merge_sum((a, b))
            elif isinstance(a, list):
                summed[spec.name] = [
                    x + y for x, y in zip_longest(a, b, fillvalue=0.0)]
            else:
                summed[spec.name] = a + b
        return StepTotals(**summed)

    # ------------------------------------------------------------------
    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefill positions served from shared KV blocks."""
        return _ratio(self.prefix_hit_tokens, self.total_prefill_tokens)

    @property
    def mean_batch_tokens(self) -> float:
        """Average token positions per batched step (batch occupancy)."""
        return _ratio(self.total_slots, self.n_steps)

    @property
    def mean_kv_utilization(self) -> float:
        """Step-weighted mean KV-budget utilisation."""
        return _ratio(self.kv_utilization_sum, self.n_steps)

    @property
    def shard_utilization(self) -> List[float]:
        """Mean MPE utilisation of each shard over the run's steps."""
        return [_ratio(s, self.n_steps) for s in self.shard_utilization_sums]

    @property
    def interconnect_fraction(self) -> float:
        """Share of step time spent in inter-shard collectives."""
        busy = self.compute_seconds + self.interconnect_seconds
        return _ratio(self.interconnect_seconds, busy)

    @property
    def mean_step_compute_seconds(self) -> float:
        """Average per-step compute time (max over shards, ex-collectives)."""
        return _ratio(self.compute_seconds, self.n_steps)

    @property
    def compile_cache_hits(self) -> int:
        """Every step makes exactly one lookup; those that did not miss."""
        return self.n_steps - self.compile_cache_misses

    @property
    def compile_cache_hit_rate(self) -> float:
        """Fraction of compiled-step lookups served from the cache."""
        return _ratio(self.compile_cache_hits, self.n_steps)

    @property
    def compile_seconds(self) -> float:
        """Host wall-clock spent compiling, all phases."""
        return sum(self.compile_phase_seconds.values())

    @property
    def autotune_win_ratio(self) -> float:
        """Fraction of autotune searches whose winner beat fixed tiling."""
        return _ratio(self.autotune_wins, self.autotune_searches)

    @property
    def quant_bytes_saved(self) -> int:
        """HBM bytes the quantised encodings avoided streaming vs fp32."""
        return self.counters.quant_saved_bytes

    @property
    def dequant_flops(self) -> int:
        """SFU dequant/quant work charged by the timing model."""
        return self.counters.dequant_flops

    @property
    def dequant_overhead_fraction(self) -> float:
        """Share of SFU work spent (de)quantising weights and KV."""
        return _ratio(self.dequant_flops, self.counters.sfu_flops)

    @property
    def quant_saved_fraction(self) -> float:
        """Fraction of the fp32-equivalent HBM traffic quantisation avoided."""
        fp32_equiv = self.counters.hbm_bytes + self.quant_bytes_saved
        return _ratio(self.quant_bytes_saved, fp32_equiv)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposed draft tokens the verify steps accepted."""
        return _ratio(self.spec_accepted_tokens, self.spec_draft_tokens)

    @property
    def tokens_per_decode_step(self) -> float:
        """Mean tokens committed per decode turn (1.0 without speculation).

        This is the speculation multiplier on the decode hot path: each
        decode turn streams the model weights once, so committing ``m``
        tokens per turn cuts per-token weight traffic by ``m``.
        """
        return _ratio(self.spec_committed_tokens, self.spec_decode_steps)


@dataclass
class Admission:
    """A request a step admitted, and the preemption (if any) whose wait
    that admission ended — read then, as the same step may preempt the
    request again."""

    request: Request
    requeued_at: Optional[float]


@dataclass
class RequestStep:
    """What one step did to one scheduled request: phase, slots, first
    position, KV blocks (paged) and drafts as it began, drafts accepted,
    tokens committed (the first at generation index ``first_index``), and
    whether it retired into this engine's report (not handed off)."""

    request: Request
    phase: str  # the span name, "prefill" or "decode"
    n_slots: int
    start_pos: int
    kv_blocks: Optional[int]
    drafted: int
    accepted: int
    first_index: int
    tokens: List[int]
    reported: bool


@dataclass
class StepRecord:
    """Everything one engine step did, read by :func:`repro.obs.trace_step`
    and :func:`repro.obs.count_step` once it is done: lane, clock before
    and after, admissions, the scheduler's own :class:`PreemptionEvent`
    objects, one :class:`RequestStep` per scheduled request in commit
    order, its totals and the engine's after them, its cycle spans, and
    the running and queued counts after the commit.  A step that ran no
    slot has no ``totals``; ``cancel`` hands over only ``cancelled``."""

    track: str
    start: float
    end: float
    admitted: Sequence[Admission] = ()
    preempted: Sequence["PreemptionEvent"] = ()
    requests: Sequence[RequestStep] = ()
    cancelled: Sequence[Request] = ()
    totals: Optional[StepTotals] = None
    engine_totals: Optional[StepTotals] = None
    cycle_spans: Optional[tuple] = None
    seconds_per_cycle: float = 0.0
    n_running: int = 0
    n_queued: int = 0


@dataclass(kw_only=True)
class ServeReport(StepTotals):
    """Aggregate outcome of serving a set of requests: the engine's
    :class:`StepTotals` plus what does not add — requests, clock, energy
    and the configuration that produced them."""

    requests: List[RequestMetrics]
    makespan_seconds: float
    #: Not linear in the counters, so computed per engine, then summed.
    energy: EnergyBreakdown
    #: Scheduling policy the run used ("fifo" / "priority" / "fairness").
    policy: str = "fifo"
    #: Whether prefill shared a per-step chunk budget with decode.
    chunked_prefill: bool = False
    #: Block-granular KV accounting (False under reservation).
    paged: bool = False
    #: Accelerator devices executing each step.
    n_shards: int = 1
    #: Human-readable quant tag (e.g. "int8g64+kv8"); None = fp32.
    quant: Optional[str] = None
    #: Speculative drafter ("ngram" / "draft-model"); None = spec off.
    spec_method: Optional[str] = None

    # ------------------------------------------------------------------
    @classmethod
    def merged(cls, reports: Sequence["ServeReport"]) -> "ServeReport":
        """Pool several engines' reports into one cluster-wide report.

        The counters are the sum of the engines' :class:`StepTotals`.
        Requests are *concatenated*, so every percentile (TTFT, ITL,
        latency, the per-tier breakdowns) is computed over the pooled
        sample population — never by averaging per-replica percentiles,
        which is statistically meaningless.  Energy is summed; the
        makespan is the maximum replica clock (replicas run concurrently
        on one simulated timeline, so the cluster finishes when the last
        one does).  Empty input yields an all-zero report.
        """
        reports = list(reports)
        if not reports:
            return cls(requests=[], makespan_seconds=0.0,
                       energy=EnergyBreakdown())
        totals = sum(reports, StepTotals())
        # Per-shard utilisation is a per-replica detail; the pooled
        # view keeps it empty and leaves it to the replica reports.
        totals.shard_utilization_sums = []
        policies = {report.policy for report in reports}
        return cls(
            **vars(totals),
            requests=[r for report in reports for r in report.requests],
            makespan_seconds=max(report.makespan_seconds
                                 for report in reports),
            energy=EnergyBreakdown(**merge_sum(
                dataclasses.asdict(report.energy) for report in reports)),
            policy=policies.pop() if len(policies) == 1 else "mixed",
            chunked_prefill=any(r.chunked_prefill for r in reports),
            paged=any(r.paged for r in reports),
            n_shards=max(report.n_shards for report in reports),
            quant=next((r.quant for r in reports if r.quant is not None),
                       None),
            spec_method=next((r.spec_method for r in reports
                              if r.spec_method is not None), None),
        )

    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def speculative(self) -> bool:
        return self.spec_method is not None

    @property
    def total_generated_tokens(self) -> int:
        return sum(r.n_generated for r in self.requests)

    @property
    def throughput_tokens_per_second(self) -> float:
        """Generated tokens over the whole run's simulated makespan."""
        return _ratio(self.total_generated_tokens, self.makespan_seconds)

    @property
    def tokens_per_joule(self) -> float:
        return _ratio(self.total_generated_tokens, self.energy.total_j)

    # ------------------------------------------------------------------
    @staticmethod
    def _summary(values: List[float]) -> LatencySummary:
        # A report may be taken before anything finished (e.g. a progress
        # probe on a running engine); summarise that as all-zero rather
        # than raising on the empty population.
        if not values:
            return LatencySummary(n=0, mean=0.0, p50=0.0, p95=0.0, max=0.0)
        return LatencySummary.from_values(values)

    def latency_summary(self) -> LatencySummary:
        """End-to-end request latency distribution (arrival → finish)."""
        return self._summary([r.latency_s for r in self.requests])

    def ttft_summary(self) -> LatencySummary:
        """Time-to-first-token distribution."""
        return self._summary([r.time_to_first_token_s for r in self.requests])

    def queue_wait_summary(self) -> LatencySummary:
        """Admission-wait distribution."""
        return self._summary([r.queue_wait_s for r in self.requests])

    # ------------------------------------------------------------------
    # SLO tiers: per-priority latency breakdown
    # ------------------------------------------------------------------
    def _tier_requests(self, priority: Optional[int]) -> List[RequestMetrics]:
        if priority is None:
            return self.requests
        return [r for r in self.requests if r.priority == priority]

    def itl_summary(self, priority: Optional[int] = None) -> LatencySummary:
        """Inter-token-latency distribution, pooled over every gap of
        every request (optionally restricted to one priority tier).

        This is the latency chunked prefill protects: the simulated time
        a client waits between consecutive streamed tokens, which grows
        with the size of whatever step ran in between — a monolithic
        long-prompt prefill shows up here as a fat tail.
        """
        return self._summary([
            gap
            for r in self._tier_requests(priority)
            for gap in r.inter_token_latencies_s
        ])

    @property
    def tiers(self) -> List[int]:
        """Priority tiers present in the served population, most urgent
        first."""
        return sorted({r.priority for r in self.requests})

    def tier_breakdown(self) -> Dict[int, Dict[str, float]]:
        """Per-tier latency percentiles (milliseconds) and counts."""
        breakdown: Dict[int, Dict[str, float]] = {}
        for tier in self.tiers:
            members = self._tier_requests(tier)
            ttft = self._summary([r.time_to_first_token_s for r in members])
            itl = self.itl_summary(tier)
            breakdown[tier] = {
                "n_requests": len(members),
                "generated_tokens": sum(r.n_generated for r in members),
                "ttft_p50_ms": ttft.p50 * 1e3,
                "ttft_p95_ms": ttft.p95 * 1e3,
                "ttft_p99_ms": ttft.p99 * 1e3,
                "itl_p50_ms": itl.p50 * 1e3,
                "itl_p95_ms": itl.p95 * 1e3,
                "itl_p99_ms": itl.p99 * 1e3,
                "mean_queue_wait_ms": (
                    sum(r.queue_wait_s for r in members) / len(members) * 1e3
                ),
            }
        return breakdown

    def request_rows(self) -> List[Dict[str, object]]:
        return [r.as_row() for r in self.requests]

    def as_dict(self) -> Dict[str, object]:
        latency = self.latency_summary()
        ttft = self.ttft_summary()
        itl = self.itl_summary()
        return {
            "n_requests": self.n_requests,
            "n_steps": self.n_steps,
            "total_generated_tokens": self.total_generated_tokens,
            "makespan_seconds": self.makespan_seconds,
            "throughput_tokens_per_second": self.throughput_tokens_per_second,
            "mean_batch_tokens": self.mean_batch_tokens,
            "policy": self.policy,
            "chunked_prefill": self.chunked_prefill,
            "latency_p50_ms": latency.p50 * 1e3,
            "latency_p95_ms": latency.p95 * 1e3,
            "ttft_p50_ms": ttft.p50 * 1e3,
            "ttft_p95_ms": ttft.p95 * 1e3,
            "ttft_p99_ms": ttft.p99 * 1e3,
            "itl_p50_ms": itl.p50 * 1e3,
            "itl_p95_ms": itl.p95 * 1e3,
            "itl_p99_ms": itl.p99 * 1e3,
            "tiers": {str(t): row for t, row in self.tier_breakdown().items()},
            "mean_queue_wait_ms": self.queue_wait_summary().mean * 1e3,
            "tokens_per_joule": self.tokens_per_joule,
            "hbm_gbytes": self.counters.hbm_bytes / 1e9,
            "paged": self.paged,
            "peak_running": self.peak_running,
            "n_preemptions": self.n_preemptions,
            "prefix_hit_rate": self.prefix_hit_rate,
            "mean_kv_utilization": self.mean_kv_utilization,
            "tensor_parallel": self.n_shards,
            "mean_step_compute_ms": self.mean_step_compute_seconds * 1e3,
            "interconnect_fraction": self.interconnect_fraction,
            "shard_utilization": list(self.shard_utilization),
            "compile_cache_hits": self.compile_cache_hits,
            "compile_cache_misses": self.compile_cache_misses,
            "compile_cache_evictions": self.compile_cache_evictions,
            "compile_cache_hit_rate": self.compile_cache_hit_rate,
            # The only values on the host clock; everything outside
            # this key is simulated and regenerates bit-for-bit.
            "host": {
                "compile_seconds": self.compile_seconds,
                "compile_phase_seconds": dict(self.compile_phase_seconds),
            },
            "autotune_searches": self.autotune_searches,
            "autotune_candidates": self.autotune_candidates,
            "autotune_wins": self.autotune_wins,
            "autotune_win_ratio": self.autotune_win_ratio,
            "quant": self.quant,
            "quant_bytes_saved": self.quant_bytes_saved,
            "quant_saved_fraction": self.quant_saved_fraction,
            "dequant_flops": self.dequant_flops,
            "dequant_overhead_fraction": self.dequant_overhead_fraction,
            "speculative": self.speculative,
            "spec_method": self.spec_method,
            "spec_draft_tokens": self.spec_draft_tokens,
            "spec_accepted_tokens": self.spec_accepted_tokens,
            "acceptance_rate": self.acceptance_rate,
            "tokens_per_decode_step": self.tokens_per_decode_step,
        }
