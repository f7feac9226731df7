"""The cluster engine: N serving-engine replicas behind one router.

:class:`ClusterEngine` scales the single-engine serving stack out
data-parallel: it owns N independent :class:`~repro.serve.ServingEngine`
replicas — each built from the same :class:`~repro.api.EngineConfig`,
each with its own scheduler, KV pool and simulated clock — and a
:class:`~repro.cluster.routing.Router` that pins every arriving request
to one replica.  All replicas share one ``SpeedLLM`` stack: execution is
functional and stateless across requests, so the fleet costs one model
build, while timing, memory and scheduling state stay fully per-replica.

**Co-simulation.**  The replicas advance on one shared simulated
timeline by event-driven interleaving: each iteration steps the replica
whose clock is furthest behind among those with work, so no replica's
clock runs ahead while another still has earlier work — the cluster
makespan is simply the maximum replica clock, and metrics from
different replicas are directly comparable.  Cluster-level arrivals are
dispatched to the router the moment the frontier clock reaches them;
idle gaps fast-forward exactly as in the single engine.

**Token identity.**  Routing only decides *where* a request runs, and a
replica is a byte-for-byte single engine, so every request served
through the cluster produces exactly the tokens the same
``EngineConfig`` produces alone — under every routing policy, and
through the disaggregated path (where the live sampler object travels
with the KV handoff).  The cluster tests pin this.

**Disaggregated mode** routes arrivals to a prefill pool whose replicas
run each prompt and first token, then hand the prompt's KV cache to a
decode-pool replica over a priced point-to-point link (see
:mod:`repro.cluster.disagg`).  **Autoscaling** spawns and retires
replicas of the scaled pool against queue-depth watermarks, always
draining a replica before retiring it so no request is lost.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from ..api.errors import KVCapacityError, PromptTooLongError
from ..api.params import SamplingParams
from ..obs import tracer as spans
from ..obs.tracer import NULL_TRACER, Tracer
from ..serve.engine import ServingEngine, workload_submissions
from ..serve.metrics import RequestMetrics, ServeReport
from ..serve.request import Request
from ..sim.interconnect import InterconnectModel
from .config import ClusterConfig
from .disagg import (HandoffPacket, build_continuation, harvest_handoff,
                     needs_handoff)
from .report import ClusterReport, KVTransferTotals, ReplicaSummary
from .routing import Router, routable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.speedllm import SpeedLLM
    from ..obs.registry import MetricsRegistry

__all__ = ["ClusterEngine", "Replica"]


@dataclass
class Replica:
    """One engine replica and its cluster-lifecycle state."""

    index: int
    engine: ServingEngine
    pool: str = "unified"  # "unified" | "prefill" | "decode"
    spawned_at: float = 0.0
    #: Draining: excluded from routing, still stepping until empty.
    draining: bool = False
    retired: bool = False
    retired_at: Optional[float] = None

    @property
    def clock(self) -> float:
        return self.engine.clock

    @property
    def has_work(self) -> bool:
        return self.engine.scheduler.has_work

    @property
    def load_score(self) -> float:
        """Routing load: outstanding tokens inflated by KV pressure.

        The token backlog is the work still to execute; the KV-pool
        utilisation factor makes a memory-saturated replica (one more
        request away from preempting) look busier than its token count
        alone, which is the "projected KV pressure" a least-loaded
        router needs to avoid sending work into a thrashing pool.
        """
        scheduler = self.engine.scheduler
        return scheduler.outstanding_tokens * (1.0 + scheduler.kv_utilization)


@dataclass
class _ClusterRequest:
    """Cluster-level bookkeeping of one submitted request."""

    request_id: str
    order: int
    prompt: str
    prompt_tokens: List[int]
    params: SamplingParams
    capped: SamplingParams
    arrival_time: float
    #: "pending" → (routed:) "unified" | "prefill" → "handoff" → "decode";
    #: terminal work lives on ``engine``/``request`` once routed.
    stage: str = "pending"
    engine: Optional[ServingEngine] = None
    request: Optional[Request] = None


@dataclass
class _Handoff:
    """A prefilled request in flight between pools."""

    packet: HandoffPacket
    continuation: Request
    creq: _ClusterRequest
    #: Decode replica chosen at the first delivery attempt; reused on
    #: retries so router decisions are counted exactly once.
    target_index: Optional[int] = None


class ClusterEngine:
    """Data-parallel serving: a router in front of N engine replicas."""

    def __init__(
        self,
        config: ClusterConfig,
        llm: Optional["SpeedLLM"] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.config = config
        self.llm = llm if llm is not None else config.engine.build_llm()
        #: Shared lifecycle tracer and metrics registry: every replica
        #: emits onto the same tracer (one track per replica) so the
        #: timeline shows the whole fleet on one clock.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.router: Router = config.build_router()
        #: Separate router instance for decode-pool handoff delivery, so
        #: admission and delivery decisions are counted apart.
        self.delivery_router: Router = config.build_router()
        self.replicas: List[Replica] = []
        for i in range(config.n_replicas):
            if config.disaggregate:
                pool = ("prefill" if i < config.n_prefill_replicas
                        else "decode")
            else:
                pool = "unified"
            self._spawn(pool, now=0.0)
        self.kv_link = InterconnectModel(
            bandwidth_gbps=config.kv_transfer_gbps,
            latency_s=config.kv_transfer_latency_us * 1e-6,
        )
        self._orders = 0
        self._pending: List[tuple] = []  # heap of (arrival, order, creq)
        self._by_id: Dict[str, _ClusterRequest] = {}
        self._submitted: List[_ClusterRequest] = []
        self._handoffs: List[_Handoff] = []
        #: Disaggregated KV-transfer accounting (see _deliver_handoffs).
        self.kv_transfer = KVTransferTotals()
        #: Autoscaling event log (time, action, replica, queued).
        self.autoscale_events: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """The cluster-wide frontier: the furthest replica clock."""
        return max((r.clock for r in self.replicas), default=0.0)

    def _spawn(self, pool: str, now: float) -> Replica:
        engine = self.config.engine.build_engine(
            llm=self.llm, tracer=self.tracer, metrics=self.metrics)
        engine.clock = now
        index = len(self.replicas)
        engine.set_trace_track(
            f"replica-{index}" if pool == "unified" else f"{pool}-{index}")
        replica = Replica(index=index, engine=engine,
                          pool=pool, spawned_at=now)
        if pool == "prefill":
            engine.on_finish = self._make_prefill_observer(replica)
        self.replicas.append(replica)
        return replica

    def _make_prefill_observer(self, replica: Replica):
        """Turn a retiring prefill stub into a handoff, at the only moment
        its KV is still readable.  Returns True when it did: the decode
        side reports the request end-to-end, so report, trace and
        registry each see it once; the stub's prefill/token spans and
        step counters stay — that work really happened here."""
        def observe(request: Request) -> bool:
            creq = self._by_id.get(request.request_id)
            if (creq is None or creq.stage != "prefill"
                    or not needs_handoff(request, creq.capped)):
                # Finished for real at the prefill stage (EOS, stop
                # string, or a one-token budget): the stub is the whole
                # request and stays in this replica's report.
                return False
            packet = harvest_handoff(replica.engine, request, creq.capped)
            creq.stage = "handoff"
            self._handoffs.append(_Handoff(
                packet=packet,
                continuation=build_continuation(packet),
                creq=creq,
            ))
            return True
        return observe

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt: str,
        params: Optional[SamplingParams] = None,
        *,
        arrival_time: float = 0.0,
        request_id: Optional[str] = None,
    ) -> str:
        """Enqueue a request for routed dispatch; returns its id.

        Requests are held at the cluster level until the simulated clock
        reaches their arrival time, then routed — so a routing decision
        always sees the replica loads of its own moment, not submission
        order artifacts.  A request no replica could ever hold is refused
        here (:class:`~repro.api.errors.KVCapacityError`), not when the
        co-simulation reaches its arrival time.
        """
        params = params or SamplingParams()
        tokens = self.llm.encode(prompt)
        max_seq_len = self.llm.model_config.max_seq_len
        if len(tokens) >= max_seq_len:
            raise PromptTooLongError(len(tokens), max_seq_len)
        creq = _ClusterRequest(
            request_id=request_id or f"creq-{self._orders}",
            order=self._orders,
            prompt=prompt,
            prompt_tokens=[int(t) for t in tokens],
            params=params,
            capped=params.capped(max_seq_len, len(tokens)),
            arrival_time=arrival_time,
        )
        if creq.request_id in self._by_id:
            raise ValueError(
                f"request id {creq.request_id!r} is already tracked")
        # Every replica is built from the one engine config, so any
        # replica's KV manager answers for all of them.
        reason = self.replicas[0].engine.scheduler.kv.never_fits(
            len(tokens) + creq.capped.max_tokens)
        if reason is not None:
            raise KVCapacityError(creq.request_id, reason)
        self._orders += 1
        self._by_id[creq.request_id] = creq
        self._submitted.append(creq)
        heapq.heappush(self._pending,
                       (creq.arrival_time, creq.order, creq))
        return creq.request_id

    def serve(
        self,
        workloads: Iterable,
        params: Optional[SamplingParams] = None,
        arrivals: Optional[Sequence[float]] = None,
    ) -> ClusterReport:
        """Submit a suite of workloads and drain the cluster.

        Mirrors :meth:`ServingEngine.serve`: each workload's decode
        budget (and non-default priority) overrides ``params``;
        ``arrivals`` supplies per-request arrival times (everything at
        t=0 when omitted).
        """
        for prompt, request_params, when in workload_submissions(
                workloads, params, arrivals):
            self.submit(prompt, request_params, **when)
        return self.run()

    # ------------------------------------------------------------------
    # Co-simulation loop
    # ------------------------------------------------------------------
    def _has_outstanding(self) -> bool:
        return (bool(self._pending) or bool(self._handoffs)
                or any(r.has_work for r in self.replicas if not r.retired))

    def run(self, max_steps: Optional[int] = None) -> ClusterReport:
        """Advance the co-simulation until every request finished."""
        steps = 0
        while self._has_outstanding():
            if max_steps is not None and steps >= max_steps:
                raise RuntimeError(
                    f"cluster did not drain within {max_steps} steps")
            if not self._advance():
                raise RuntimeError(
                    "cluster stalled: no replica can make progress "
                    "(undeliverable handoff or unroutable request)")
            steps += 1
        return self.report()

    def _advance(self) -> bool:
        """One co-simulation event; returns False when nothing progressed."""
        progressed = False
        now = self._frontier_time()
        progressed |= self._dispatch_due(now)
        progressed |= self._deliver_handoffs()
        if self.config.autoscale:
            progressed |= self._autoscale(now)
        replica = self._laggard()
        if replica is not None:
            replica.engine.step()
            progressed = True
        return progressed

    def _frontier_time(self) -> float:
        """The simulated time the next event happens at."""
        active = [r.clock for r in self.replicas
                  if not r.retired and r.has_work]
        if active:
            return min(active)
        if self._pending:
            return self._pending[0][0]
        if self._handoffs:
            return min(h.packet.finish_clock for h in self._handoffs)
        return self.clock

    def _laggard(self) -> Optional[Replica]:
        """The replica to step next: furthest-behind clock with work."""
        candidates = [r for r in self.replicas
                      if not r.retired and r.has_work]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.clock, r.index))

    # ------------------------------------------------------------------
    def _dispatch_due(self, now: float) -> bool:
        """Route every pending request whose arrival time has come."""
        pool = "prefill" if self.config.disaggregate else "unified"
        dispatched = False
        while self._pending and self._pending[0][0] <= now:
            _, _, creq = heapq.heappop(self._pending)
            candidates = routable(self.replicas, pool)
            if not candidates:
                raise RuntimeError(f"no routable {pool} replica")
            target = self.router.route(candidates, creq.prompt_tokens)
            params = creq.params
            if self.config.disaggregate:
                # The prefill stub runs the prompt plus the first token;
                # the original budget is restored on the decode side.
                params = dataclasses.replace(creq.params, max_tokens=1)
            handle = target.engine.submit_tokens(
                creq.prompt_tokens, params, prompt=creq.prompt,
                request_id=creq.request_id,
                arrival_time=creq.arrival_time,
            )
            if self.tracer.enabled:
                self.tracer.instant(
                    spans.ROUTED, max(now, creq.arrival_time),
                    request_id=creq.request_id,
                    track=target.engine.trace_track,
                    replica=target.index, pool=pool,
                )
            creq.stage = pool
            creq.engine = target.engine
            creq.request = handle.request
            dispatched = True
        return dispatched

    # ------------------------------------------------------------------
    def _deliver_handoffs(self) -> bool:
        """Adopt transferred requests into decode replicas when ready.

        A handoff is deliverable once the target replica's clock has
        reached ``prefill finish + transfer time`` (an idle target
        fast-forwards to it — it was waiting on the wire).  A target
        without capacity right now is retried after its work drains.
        """
        pool = "decode" if self.config.disaggregate else "unified"
        delivered = False
        for handoff in list(self._handoffs):
            target = None
            if handoff.target_index is not None:
                target = self.replicas[handoff.target_index]
                if target.draining or target.retired:
                    target = None  # retired under us: reselect
            if target is None:
                candidates = routable(self.replicas, pool)
                if not candidates:
                    raise RuntimeError(f"no routable {pool} replica")
                target = self.delivery_router.route(
                    candidates, handoff.packet.prompt_tokens)
                handoff.target_index = target.index
            packet = handoff.packet
            # The wire carries what the target does not already hold.
            positions = packet.n_positions - (
                target.engine.scheduler.kv.cached_positions(
                    packet.prompt_tokens[:packet.n_positions]))
            seconds = self.kv_link.point_to_point_seconds(
                positions * packet.bytes_per_position)
            ready = packet.finish_clock + seconds
            if target.has_work and target.clock < ready:
                continue  # the KV is still on the wire; step on
            hit = target.engine.adopt_handoff(
                handoff.continuation, packet.keys, packet.values,
                packet.n_positions,
            )
            if hit is None:
                continue  # no capacity yet; retry once work drains
            # Price the transfer on the positions actually copied (the
            # adoption's own prefix hits, re-measured atomically with it).
            wire_positions = packet.n_positions - hit
            nbytes = wire_positions * packet.bytes_per_position
            seconds = self.kv_link.point_to_point_seconds(nbytes)
            target.engine.clock = max(target.clock,
                                      packet.finish_clock + seconds)
            if self.tracer.enabled:
                self.tracer.span(
                    spans.HANDOFF, packet.finish_clock,
                    packet.finish_clock + seconds,
                    request_id=handoff.creq.request_id,
                    track=target.engine.trace_track,
                    to_replica=target.index,
                    bytes=nbytes,
                    wire_positions=wire_positions,
                    saved_positions=hit,
                )
            # The one site a delivery is counted: report and registry.
            totals = self.kv_transfer
            totals.kv_transfers += 1
            totals.kv_transfer_bytes += nbytes
            totals.kv_transfer_seconds += seconds
            totals.kv_transfer_saved_positions += hit
            if self.metrics is not None:
                self.metrics.counter(
                    "speedllm_kv_handoffs_total",
                    "Prefill→decode KV handoffs delivered.",
                    {"track": target.engine.trace_track},
                ).inc()
            handoff.creq.stage = "decode"
            handoff.creq.engine = target.engine
            handoff.creq.request = handoff.continuation
            self._handoffs.remove(handoff)
            delivered = True
        return delivered

    # ------------------------------------------------------------------
    def _autoscale(self, now: float) -> bool:
        """Spawn/drain/retire scaled-pool replicas against the watermarks."""
        config = self.config
        pool = "decode" if config.disaggregate else "unified"
        members = [r for r in self.replicas
                   if r.pool == pool and not r.retired]
        live = [r for r in members if not r.draining]
        queued = sum(len(r.engine.scheduler.queue) for r in live)
        if config.disaggregate:
            queued += len(self._handoffs)
        changed = False
        if (queued >= config.scale_up_queue_depth
                and len(live) < config.resolved_max_replicas):
            replica = self._spawn(pool, now)
            self.autoscale_events.append({
                "time": now, "action": "spawn",
                "replica": replica.index, "queued": queued,
            })
            changed = True
        elif (queued <= config.scale_down_queue_depth
                and len(live) > config.min_replicas):
            victim = min(live, key=lambda r:
                         (r.engine.scheduler.outstanding_tokens, r.index))
            victim.draining = True
            self.autoscale_events.append({
                "time": now, "action": "drain",
                "replica": victim.index, "queued": queued,
            })
            changed = True
        for replica in members:
            if replica.draining and not replica.retired and not replica.has_work:
                replica.retired = True
                replica.retired_at = now
                self.autoscale_events.append({
                    "time": now, "action": "retire",
                    "replica": replica.index, "queued": queued,
                })
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Results and reporting
    # ------------------------------------------------------------------
    def results(self) -> List[RequestMetrics]:
        """Per-request metrics in submission order (run must have drained)."""
        out: List[RequestMetrics] = []
        for creq in self._submitted:
            if creq.engine is None or creq.request is None:
                raise RuntimeError(
                    f"request {creq.request_id!r} was never dispatched")
            out.append(creq.engine.result_for(creq.request))
        return out

    def streams(self) -> List[List[int]]:
        """Generated token streams in submission order."""
        return [list(r.generated_tokens) for r in self.results()]

    def report(self) -> ClusterReport:
        """Pooled + per-replica report over everything served so far."""
        summaries = [
            ReplicaSummary(
                index=replica.index,
                pool=replica.pool,
                spawned_at=replica.spawned_at,
                retired_at=replica.retired_at,
                report=replica.engine.report(),
            )
            for replica in self.replicas
        ]
        routing = self.router.stats()
        if self.config.disaggregate:
            routing["decode_pool"] = self.delivery_router.stats()
        return ClusterReport(
            pooled=ServeReport.merged([s.report for s in summaries]),
            replicas=summaries,
            route=self.config.route,
            disaggregated=self.config.disaggregate,
            autoscaled=self.config.autoscale,
            routing=routing,
            autoscale_events=list(self.autoscale_events),
            **vars(self.kv_transfer),
        )
