"""Declarative cluster configuration.

:class:`ClusterConfig` is to a replica fleet what
:class:`~repro.api.EngineConfig` is to one engine: the single
declarative description of the whole deployment — how many replicas,
which routing policy, whether prefill and decode are disaggregated, and
the autoscaling envelope — with :meth:`ClusterConfig.build_cluster`
performing the assembly in one place.  Every replica is built from the
*same* embedded ``EngineConfig`` (optionally TP-sharded), which is what
makes the cluster a pure data-parallel scale-out: any request served by
the cluster is byte-identical to the same request on a single engine
with that config.

>>> from repro.api import EngineConfig
>>> from repro.cluster import ClusterConfig
>>> cluster = ClusterConfig(
...     engine=EngineConfig(model="test-small", paged=True, max_vocab=512),
...     n_replicas=4, route="affinity",
... ).build_cluster()   # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..api.config import EngineConfig
from ..api.errors import FrontendError
from .routing import ROUTES, Router, build_routing_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.speedllm import SpeedLLM
    from ..obs.registry import MetricsRegistry
    from ..obs.tracer import Tracer
    from .engine import ClusterEngine

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build a replica cluster, in one declaration."""

    #: Per-replica engine configuration; every replica is identical.
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Replica count at start (total, including the prefill pool when
    #: disaggregated).
    n_replicas: int = 2
    #: Routing policy: "rr", "least-loaded" or "affinity".
    route: str = "rr"

    # Disaggregated prefill/decode --------------------------------------
    disaggregate: bool = False
    #: Replicas dedicated to prefill when disaggregated; the remaining
    #: ``n_replicas - n_prefill_replicas`` form the decode pool.
    n_prefill_replicas: int = 1

    # Autoscaling --------------------------------------------------------
    autoscale: bool = False
    #: Scaled pool bounds (the decode pool when disaggregated, the whole
    #: fleet otherwise).  ``max_replicas=None`` allows twice the starting
    #: pool.
    min_replicas: int = 1
    max_replicas: Optional[int] = None
    #: Queue-depth watermarks, in queued requests across the scaled pool:
    #: spawn above the high mark, drain-and-retire below the low mark.
    scale_up_queue_depth: int = 8
    scale_down_queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise FrontendError(
                f"n_replicas must be >= 1, got {self.n_replicas}")
        if self.route not in ROUTES:
            raise FrontendError(
                f"route must be one of {ROUTES}, got {self.route!r}")
        if self.disaggregate:
            if self.n_replicas < 2:
                raise FrontendError(
                    "disaggregation needs n_replicas >= 2 (at least one "
                    "prefill and one decode replica)")
            if not 1 <= self.n_prefill_replicas <= self.n_replicas - 1:
                raise FrontendError(
                    f"n_prefill_replicas must be in [1, {self.n_replicas - 1}]"
                    f", got {self.n_prefill_replicas}")
        if self.autoscale:
            if self.min_replicas < 1:
                raise FrontendError("min_replicas must be >= 1")
            if self.min_replicas > self.scaled_pool_size:
                raise FrontendError(
                    f"min_replicas ({self.min_replicas}) exceeds the "
                    f"starting pool of {self.scaled_pool_size}")
            if (self.max_replicas is not None
                    and self.max_replicas < self.scaled_pool_size):
                raise FrontendError(
                    f"max_replicas ({self.max_replicas}) is below the "
                    f"starting pool of {self.scaled_pool_size}")
            if self.scale_down_queue_depth >= self.scale_up_queue_depth:
                raise FrontendError(
                    "scale_down_queue_depth must be below "
                    "scale_up_queue_depth")

    # ------------------------------------------------------------------
    @property
    def n_decode_replicas(self) -> int:
        """Decode-pool size (the whole fleet when not disaggregated)."""
        if self.disaggregate:
            return self.n_replicas - self.n_prefill_replicas
        return self.n_replicas

    @property
    def scaled_pool_size(self) -> int:
        """Starting size of the pool autoscaling acts on."""
        return self.n_decode_replicas

    @property
    def resolved_max_replicas(self) -> int:
        """Autoscaling ceiling of the scaled pool."""
        if self.max_replicas is not None:
            return self.max_replicas
        return 2 * self.scaled_pool_size

    # ------------------------------------------------------------------
    def build_router(self) -> Router:
        """The routing seam this configuration describes."""
        return Router(build_routing_policy(
            self.route, block_tokens=self.engine.block_size))

    def build_cluster(
        self,
        llm: Optional["SpeedLLM"] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> "ClusterEngine":
        """Assemble the replica fleet, router and shared clock.

        All replicas share one ``llm`` stack (execution is functional;
        each replica keeps its own scheduler, KV pool and clock), so an
        N-replica cluster does not cost N model builds.  ``tracer`` /
        ``metrics`` attach one shared observability sink across every
        replica (one trace track per replica).
        """
        from .engine import ClusterEngine
        return ClusterEngine(self, llm=llm, tracer=tracer, metrics=metrics)
