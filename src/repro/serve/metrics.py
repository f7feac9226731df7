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
from typing import Dict, List, Optional, Sequence

from ..core.metrics import LatencySummary, merge_sum
from ..fpga.power import EnergyBreakdown
from ..sim.stats import RunCounters
from .request import Request

__all__ = ["RequestMetrics", "ServeReport"]


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


@dataclass
class ServeReport:
    """Aggregate outcome of serving a set of requests."""

    requests: List[RequestMetrics]
    n_steps: int
    total_slots: int
    makespan_seconds: float
    counters: RunCounters
    energy: EnergyBreakdown
    #: Scheduling policy the run used ("fifo" / "priority" / "fairness").
    policy: str = "fifo"
    #: Whether prefill shared a per-step chunk budget with decode.
    chunked_prefill: bool = False
    # Paged-KV accounting (zero / False under the reservation scheduler).
    paged: bool = False
    peak_running: int = 0
    n_preemptions: int = 0
    prefix_hit_tokens: int = 0
    total_prefill_tokens: int = 0
    mean_kv_utilization: float = 0.0
    # Execution-backend accounting (single local device by default).
    n_shards: int = 1
    compute_seconds: float = 0.0
    interconnect_seconds: float = 0.0
    #: Mean MPE utilisation of each shard over the run's steps.
    shard_utilization: List[float] = field(default_factory=list)
    # Compilation-pipeline accounting.  Hits and misses count this
    # engine's own lookups (one per step, so they sum to ``n_steps``);
    # the rest are the step compiler's cumulative totals at report time
    # (see ExecutionBackend.compile_stats), which engines sharing one
    # compiler all repeat.
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    compile_cache_evictions: int = 0
    #: Wall-clock spent inside compilation phases (real seconds, not
    #: simulated ones — this is host-side compile cost).
    compile_seconds: float = 0.0
    compile_phase_seconds: Dict[str, float] = field(default_factory=dict)
    autotune_searches: int = 0
    autotune_candidates: int = 0
    autotune_wins: int = 0
    # Quantisation accounting (all zero / None without a quant config).
    #: Human-readable quant tag (e.g. "int8g64+kv8"); None = fp32.
    quant: Optional[str] = None
    #: HBM bytes the quantised encodings avoided streaming vs fp32.
    quant_bytes_saved: int = 0
    #: SFU dequant/quant work charged by the timing model.
    dequant_flops: int = 0
    # Speculative-decoding accounting (all zero / False when spec is off).
    speculative: bool = False
    spec_method: Optional[str] = None
    #: Decode turns (per-request verify/commit events) over the run.
    spec_decode_steps: int = 0
    #: Tokens committed by those decode turns (>= spec_decode_steps).
    spec_committed_tokens: int = 0
    spec_draft_tokens: int = 0
    spec_accepted_tokens: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def merged(cls, reports: Sequence["ServeReport"]) -> "ServeReport":
        """Pool several engines' reports into one cluster-wide report.

        Requests are *concatenated*, so every percentile (TTFT, ITL,
        latency, the per-tier breakdowns) is computed over the pooled
        sample population — never by averaging per-replica percentiles,
        which is statistically meaningless.  Counts, slots, counters and
        energy are summed; the makespan is the maximum replica clock
        (replicas run concurrently on one simulated timeline, so the
        cluster finishes when the last one does); KV utilisation is
        step-weighted.  ``peak_running`` sums the per-replica peaks — an
        upper bound on cluster-wide concurrency, since the peaks need
        not coincide.  Empty input yields an all-zero report.
        """
        reports = list(reports)
        if not reports:
            return cls(requests=[], n_steps=0, total_slots=0,
                       makespan_seconds=0.0, counters=RunCounters(),
                       energy=EnergyBreakdown())
        requests = [r for report in reports for r in report.requests]
        counters = RunCounters()
        for report in reports:
            counters = counters + report.counters
        energy = EnergyBreakdown(**merge_sum(
            dataclasses.asdict(report.energy) for report in reports
        ))
        n_steps = sum(report.n_steps for report in reports)
        kv_weighted = sum(report.mean_kv_utilization * report.n_steps
                          for report in reports)
        policies = {report.policy for report in reports}
        spec_methods = [report.spec_method for report in reports
                        if report.spec_method is not None]
        return cls(
            requests=requests,
            n_steps=n_steps,
            total_slots=sum(report.total_slots for report in reports),
            makespan_seconds=max(report.makespan_seconds
                                 for report in reports),
            counters=counters,
            energy=energy,
            policy=policies.pop() if len(policies) == 1 else "mixed",
            chunked_prefill=any(r.chunked_prefill for r in reports),
            paged=any(r.paged for r in reports),
            peak_running=sum(report.peak_running for report in reports),
            n_preemptions=sum(report.n_preemptions for report in reports),
            prefix_hit_tokens=sum(report.prefix_hit_tokens
                                  for report in reports),
            total_prefill_tokens=sum(report.total_prefill_tokens
                                     for report in reports),
            mean_kv_utilization=kv_weighted / n_steps if n_steps else 0.0,
            n_shards=max(report.n_shards for report in reports),
            compute_seconds=sum(report.compute_seconds for report in reports),
            interconnect_seconds=sum(report.interconnect_seconds
                                     for report in reports),
            # Per-shard utilisation is a per-replica detail; the pooled
            # view keeps it empty and leaves it to the replica reports.
            shard_utilization=[],
            compile_cache_hits=sum(r.compile_cache_hits for r in reports),
            compile_cache_misses=sum(r.compile_cache_misses
                                     for r in reports),
            compile_cache_evictions=sum(r.compile_cache_evictions
                                        for r in reports),
            compile_seconds=sum(r.compile_seconds for r in reports),
            compile_phase_seconds=merge_sum(
                r.compile_phase_seconds for r in reports
            ),
            autotune_searches=sum(r.autotune_searches for r in reports),
            autotune_candidates=sum(r.autotune_candidates for r in reports),
            autotune_wins=sum(r.autotune_wins for r in reports),
            quant=next((r.quant for r in reports if r.quant is not None),
                       None),
            quant_bytes_saved=sum(r.quant_bytes_saved for r in reports),
            dequant_flops=sum(r.dequant_flops for r in reports),
            speculative=any(r.speculative for r in reports),
            spec_method=spec_methods[0] if spec_methods else None,
            spec_decode_steps=sum(r.spec_decode_steps for r in reports),
            spec_committed_tokens=sum(r.spec_committed_tokens
                                      for r in reports),
            spec_draft_tokens=sum(r.spec_draft_tokens for r in reports),
            spec_accepted_tokens=sum(r.spec_accepted_tokens
                                     for r in reports),
        )

    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefill positions served from shared KV blocks."""
        if self.total_prefill_tokens <= 0:
            return 0.0
        return self.prefix_hit_tokens / self.total_prefill_tokens

    @property
    def total_generated_tokens(self) -> int:
        return sum(r.n_generated for r in self.requests)

    @property
    def throughput_tokens_per_second(self) -> float:
        """Generated tokens over the whole run's simulated makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.total_generated_tokens / self.makespan_seconds

    @property
    def mean_batch_tokens(self) -> float:
        """Average token positions per batched step (batch occupancy)."""
        if self.n_steps <= 0:
            return 0.0
        return self.total_slots / self.n_steps

    @property
    def interconnect_fraction(self) -> float:
        """Share of step time spent in inter-shard collectives."""
        busy = self.compute_seconds + self.interconnect_seconds
        if busy <= 0:
            return 0.0
        return self.interconnect_seconds / busy

    @property
    def mean_step_compute_seconds(self) -> float:
        """Average per-step compute time (max over shards, ex-collectives)."""
        if self.n_steps <= 0:
            return 0.0
        return self.compute_seconds / self.n_steps

    @property
    def compile_cache_hit_rate(self) -> float:
        """Fraction of compiled-step lookups served from the cache."""
        total = self.compile_cache_hits + self.compile_cache_misses
        if total <= 0:
            return 0.0
        return self.compile_cache_hits / total

    @property
    def autotune_win_ratio(self) -> float:
        """Fraction of autotune searches whose winner beat fixed tiling."""
        if self.autotune_searches <= 0:
            return 0.0
        return self.autotune_wins / self.autotune_searches

    @property
    def dequant_overhead_fraction(self) -> float:
        """Share of SFU work spent (de)quantising weights and KV."""
        if self.counters.sfu_flops <= 0:
            return 0.0
        return self.dequant_flops / self.counters.sfu_flops

    @property
    def quant_saved_fraction(self) -> float:
        """Fraction of the fp32-equivalent HBM traffic quantisation avoided."""
        fp32_equiv = self.counters.hbm_bytes + self.quant_bytes_saved
        if fp32_equiv <= 0:
            return 0.0
        return self.quant_bytes_saved / fp32_equiv

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposed draft tokens the verify steps accepted."""
        if self.spec_draft_tokens <= 0:
            return 0.0
        return self.spec_accepted_tokens / self.spec_draft_tokens

    @property
    def tokens_per_decode_step(self) -> float:
        """Mean tokens committed per decode turn (1.0 without speculation).

        This is the speculation multiplier on the decode hot path: each
        decode turn streams the model weights once, so committing ``m``
        tokens per turn cuts per-token weight traffic by ``m``.
        """
        if self.spec_decode_steps <= 0:
            return 0.0
        return self.spec_committed_tokens / self.spec_decode_steps

    @property
    def tokens_per_joule(self) -> float:
        if self.energy.total_j <= 0:
            return 0.0
        return self.total_generated_tokens / self.energy.total_j

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
            "compile_seconds": self.compile_seconds,
            "compile_phase_seconds": dict(self.compile_phase_seconds),
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
