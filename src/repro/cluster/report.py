"""Cluster-wide reporting: pooled metrics plus per-replica breakdowns.

A cluster run produces one :class:`~repro.serve.metrics.ServeReport` per
replica; :class:`ClusterReport` pools them via
:meth:`ServeReport.merged` — counters as the sum of the replicas'
:class:`~repro.serve.metrics.StepTotals`, every latency percentile over
the *concatenated* request samples, never by averaging per-replica
percentiles — and keeps the per-replica reports alongside, because
imbalance is exactly what the pooled view hides.  On top of the pooled
engine metrics it carries the cluster-only accounting: routing-decision
counters (and affinity hit/spill counts), KV-transfer totals of the
disaggregated handoff path, and the autoscaling event log.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.metrics import merge_sum
from ..serve.metrics import ServeReport

__all__ = ["ClusterReport", "KVTransferTotals", "ReplicaSummary"]


@dataclass
class ReplicaSummary:
    """One replica's lifecycle and its engine report."""

    index: int
    pool: str  # "unified" | "prefill" | "decode"
    spawned_at: float
    retired_at: Optional[float]
    report: ServeReport

    def as_dict(self) -> Dict[str, object]:
        ttft = self.report.ttft_summary()
        itl = self.report.itl_summary()
        return {
            "replica": self.index,
            "pool": self.pool,
            "spawned_at": self.spawned_at,
            "retired_at": self.retired_at,
            "n_requests": self.report.n_requests,
            "n_steps": self.report.n_steps,
            "generated_tokens": self.report.total_generated_tokens,
            "makespan_seconds": self.report.makespan_seconds,
            "throughput_tokens_per_second":
                self.report.throughput_tokens_per_second,
            "ttft_p50_ms": ttft.p50 * 1e3,
            "ttft_p95_ms": ttft.p95 * 1e3,
            "ttft_p99_ms": ttft.p99 * 1e3,
            "itl_p50_ms": itl.p50 * 1e3,
            "itl_p95_ms": itl.p95 * 1e3,
            "itl_p99_ms": itl.p99 * 1e3,
            "prefix_hit_rate": self.report.prefix_hit_rate,
            "n_preemptions": self.report.n_preemptions,
            "compile_cache_hit_rate": self.report.compile_cache_hit_rate,
        }


@dataclass
class KVTransferTotals:
    """Disaggregated KV-handoff accounting, one delivery at a time.

    The cluster engine adds to one of these where a handoff is
    delivered; :class:`ClusterReport` carries the same fields."""

    kv_transfers: int = 0
    kv_transfer_bytes: int = 0
    kv_transfer_seconds: float = 0.0
    #: Handoff positions served from the decode replica's own prefix
    #: cache instead of the wire.
    kv_transfer_saved_positions: int = 0


@dataclass(kw_only=True)
class ClusterReport(KVTransferTotals):
    """Aggregate outcome of one cluster serving run."""

    #: Pooled engine metrics (percentiles over concatenated samples).
    pooled: ServeReport
    #: Every replica that ever existed, including retired ones.
    replicas: List[ReplicaSummary]
    route: str
    disaggregated: bool = False
    autoscaled: bool = False
    #: Routing-decision counters from the admission router.
    routing: Dict[str, object] = field(default_factory=dict)
    #: Autoscaling event log: dicts with time/action/replica/queued.
    autoscale_events: List[Dict[str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        """Replicas that ever served (spawned ones included)."""
        return len(self.replicas)

    @property
    def peak_replicas(self) -> int:
        """Largest number of not-yet-retired replicas at any report time."""
        return len([r for r in self.replicas if r.retired_at is None])

    @property
    def throughput_tokens_per_second(self) -> float:
        return self.pooled.throughput_tokens_per_second

    @property
    def prefix_hit_rate(self) -> float:
        return self.pooled.prefix_hit_rate

    @property
    def makespan_seconds(self) -> float:
        return self.pooled.makespan_seconds

    @property
    def total_routing_decisions(self) -> Dict[str, int]:
        """Per-replica routing decisions, admission + decode-pool summed.

        Disaggregated runs count a request once at admission (prefill
        pool) and once at handoff delivery (decode pool); this merges
        both routers' per-replica counters key-wise so load-balance
        checks see one map.
        """
        sections = [self.routing]
        decode_pool = self.routing.get("decode_pool")
        if isinstance(decode_pool, dict):
            sections.append(decode_pool)
        return merge_sum(
            dict(section.get("decisions", {})) for section in sections)

    def as_dict(self) -> Dict[str, object]:
        """Pooled engine report extended with the cluster section.

        Same schema as a single engine's ``ServeReport.as_dict()`` plus a
        ``"cluster"`` key, so the BENCH matrix holds single-engine and
        cluster rows side by side.
        """
        payload = self.pooled.as_dict()
        payload["cluster"] = {
            "n_replicas": self.n_replicas,
            "route": self.route,
            "disaggregated": self.disaggregated,
            "autoscaled": self.autoscaled,
            "routing": dict(self.routing),
            "total_routing_decisions": self.total_routing_decisions,
            **{spec.name: getattr(self, spec.name)
               for spec in dataclasses.fields(KVTransferTotals)},
            "autoscale_events": list(self.autoscale_events),
            "replicas": [summary.as_dict() for summary in self.replicas],
        }
        return payload
