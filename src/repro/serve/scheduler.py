"""Continuous-batching scheduler.

The scheduler owns the admission queue and the set of in-flight requests
and decides, for every accelerator step, which token positions run.  The
policy is the iteration-level scheduling of production serving engines
(Orca/vLLM style) applied to the simulated SpeedLLM accelerator:

* **Admission** is policy-ordered and budget-gated: a
  :class:`~repro.serve.policy.SchedulingPolicy` (``fifo`` — the
  historical strict arrival order — or ``priority`` / ``fairness``,
  which order by the per-request SLO tier) picks the next candidate,
  and head-of-line blocking on that candidate keeps the order honest.
  Whether the candidate fits is the **KV manager's** decision
  (``Scheduler.kv``, chosen once at construction): a
  :class:`~repro.kvpool.ReservedKV` claims the *worst-case* footprint
  (prompt plus full decode budget) and holds it until retirement; a
  :class:`~repro.kvpool.KVPool` claims blocks for the *prompt* only
  (minus any prefix already cached, plus a small free-block watermark)
  and grows the claim on demand, step by step.
* **Step building** fills a token budget (``max_batch_tokens``) one
  position at a time: decoding requests first — one position each, they
  are latency-critical and keep the batch "continuous" — then prefilling
  requests contribute chunks of prompt positions.  Two prefill regimes
  exist.  The legacy one grants each request up to ``prefill_chunk``
  positions, bounded only by the step budget — a long prompt may fill
  the whole step and stall every decode batched alongside.  With
  **chunked prefill** (``chunked_prefill=True``) all prefilling requests
  share a single per-step budget of ``prefill_chunk_tokens`` positions,
  so prompt processing trickles into the spare capacity of the decode
  steps that are happening anyway and the step time — which is what
  bounds every decoding request's inter-token latency — stays flat.
  Only a request's *last* prompt position asks for logits; every other
  prefill slot skips the classifier entirely.  Every scheduled
  position is backed by the KV manager (``kv.grow``) before its slot is
  emitted; when it cannot grow the scheduler **preempts** a victim
  chosen by the policy (``fifo``: latest-admitted; ``priority`` /
  ``fairness``: least-urgent tier, never a tier more urgent than the
  request that needs the memory) among requests with no slots in this
  step — its blocks are freed and it returns to the front of the queue
  to recompute its KV entries on readmission (often a prefix hit on its
  own still-cached blocks).

Every ordering decision ties-breaks on ``Request.arrival_seq``, the
monotonic sequence number :meth:`Scheduler.submit` stamps, so scheduling
order is deterministic run to run — including preempted requests
re-queued at the head of the line.

The scheduler is purely about *which* positions run; executing them and
advancing request state is the engine's job, so the scheduler can be unit
tested without building an accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..accel.batching import BatchSlot
from ..api.errors import KVCapacityError
from ..kvpool import KVPool, ReservedKV
from ..llama.config import LlamaConfig
from ..spec.config import SpecConfig
from .policy import POLICIES, build_policy
from .request import Request, RequestQueue, RequestState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spec.drafter import Drafter

__all__ = ["PreemptionEvent", "Scheduler", "SchedulerConfig"]

#: Default KV budget when none is given: a slice of U280 HBM left for the
#: cache after weights and activation buffers (256 MB of the 8 GB card).
DEFAULT_KV_BUDGET_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class SchedulerConfig:
    """Batching policy knobs."""

    max_batch_tokens: int = 16      # token positions per batched step
    max_running: int = 16           # concurrent in-flight requests
    prefill_chunk: int = 8          # prompt positions per request per step
    kv_budget_bytes: int = DEFAULT_KV_BUDGET_BYTES
    paged: bool = False             # paged-block KV instead of reservations
    block_tokens: int = 16          # token positions per KV block
    watermark_fraction: float = 0.05  # free blocks held back at admission
    #: Chunked prefill: all prefilling requests share one per-step
    #: budget of ``prefill_chunk_tokens`` prompt positions (instead of
    #: each taking up to ``prefill_chunk``), so long prompts ride along
    #: decode steps without inflating step time.
    chunked_prefill: bool = False
    #: Per-step prefill token budget under chunked prefill; ``None``
    #: defaults to half of ``max_batch_tokens`` (at least 1).
    prefill_chunk_tokens: Optional[int] = None
    #: Scheduling policy: ``"fifo"`` (strict arrival order),
    #: ``"priority"`` (SLO tiers, smaller = more urgent) or
    #: ``"fairness"`` (priority with admission aging).
    policy: str = "fifo"
    #: Fairness aging constant: a queued request gains one priority
    #: tier of urgency per ``fairness_aging_s`` simulated seconds
    #: waited (``"fairness"`` policy only).
    fairness_aging_s: float = 0.1
    #: Speculative decoding policy; None decodes one token per request
    #: per step.  With a policy set (and a drafter attached by the
    #: engine), each decoding request may occupy up to
    #: ``speculative.num_draft_tokens`` extra slots per step — one
    #: verify run — committing several tokens per weight-streaming pass.
    speculative: Optional[SpecConfig] = None

    def __post_init__(self) -> None:
        if self.max_batch_tokens <= 0:
            raise ValueError("max_batch_tokens must be positive")
        if self.max_running <= 0:
            raise ValueError("max_running must be positive")
        if self.prefill_chunk <= 0:
            raise ValueError("prefill_chunk must be positive")
        if self.kv_budget_bytes <= 0:
            raise ValueError("kv_budget_bytes must be positive")
        if self.block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        if not 0.0 <= self.watermark_fraction < 1.0:
            raise ValueError("watermark_fraction must be in [0, 1)")
        if self.prefill_chunk_tokens is not None:
            if not self.chunked_prefill:
                raise ValueError(
                    "prefill_chunk_tokens requires chunked_prefill=True")
            if self.prefill_chunk_tokens <= 0:
                raise ValueError("prefill_chunk_tokens must be positive")
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.fairness_aging_s <= 0:
            raise ValueError("fairness_aging_s must be positive")

    @property
    def step_prefill_budget(self) -> int:
        """Per-step prefill token budget under chunked prefill."""
        if self.prefill_chunk_tokens is not None:
            return self.prefill_chunk_tokens
        return max(1, self.max_batch_tokens // 2)


@dataclass(frozen=True)
class PreemptionEvent:
    """One eviction: who was preempted, for whom, and when.

    The scheduler's audit log holds these; a step record carries the
    very objects its step appended, and :func:`repro.obs.trace_step`
    builds each ``preempted`` instant from one, so the log and the trace
    cannot drift apart.  The policy invariant — a victim is never more
    urgent than its beneficiary under priority/fairness — is asserted
    against the log by the property tests.
    """

    victim_id: str
    victim_priority: int
    beneficiary_id: str
    beneficiary_priority: int
    #: Simulated-clock time of the eviction (the step's planning time).
    time: float = 0.0


class Scheduler:
    """Admits requests and builds batched steps under token/KV budgets."""

    def __init__(
        self,
        model_config: LlamaConfig,
        config: Optional[SchedulerConfig] = None,
        kv_shards: int = 1,
        kv_quant=None,
    ) -> None:
        """``kv_shards`` (the backend's KV-capacity multiplier,
        :attr:`repro.backend.ExecutionBackend.kv_shards`) and ``kv_quant``
        (an optional :class:`~repro.llama.quantization.QuantSpec` for the
        cached vectors) go to the KV manager, which sizes footprints and
        builds caches with them; ``kv_budget_bytes`` is always the
        budget of *one* device."""
        self.model_config = model_config
        self.config = config or SchedulerConfig()
        self.queue = RequestQueue()
        self.running: List[Request] = []
        #: The one KV ledger; nothing below asks which kind it is.
        if self.config.paged:
            self.kv = KVPool(
                model_config,
                self.config.kv_budget_bytes,
                block_tokens=self.config.block_tokens,
                watermark_fraction=self.config.watermark_fraction,
                shards=kv_shards,
                quant=kv_quant,
            )
        else:
            self.kv = ReservedKV(
                model_config, self.config.kv_budget_bytes,
                shards=kv_shards, quant=kv_quant,
            )
        self.policy = build_policy(
            self.config.policy,
            fairness_aging_s=self.config.fairness_aging_s,
        )
        self._rotation = 0  # round-robin start index for step building
        self._seq = 0       # arrival_seq stamp of the next submission
        # Admission accounting, surfaced through the report.
        self.prefix_hit_tokens = 0
        self.total_prefill_tokens = 0
        #: Preemption audit log, one :class:`PreemptionEvent` per
        #: eviction; the engine's step records carry slices of it, so
        #: the log and the trace are two views of one record.
        self.preemption_events: List[PreemptionEvent] = []
        #: Clock of the most recent admission sweep — the planning time
        #: of the step under construction, which is when preemptions
        #: (decided during ``build_step``) actually happen.
        self._now = 0.0
        #: Speculative decoding: the engine attaches the drafter built
        #: from ``config.speculative`` (the scheduler cannot build it —
        #: drafters may need the model stack).
        self.spec: Optional[SpecConfig] = self.config.speculative
        self.drafter: Optional["Drafter"] = None

    def attach_drafter(self, drafter: "Drafter") -> None:
        """Enable speculative step building with ``drafter`` proposals."""
        if self.spec is None:
            raise ValueError(
                "attach_drafter needs SchedulerConfig.speculative to be set"
            )
        self.drafter = drafter

    # ------------------------------------------------------------------
    @property
    def has_work(self) -> bool:
        return bool(self.queue) or bool(self.running)

    @property
    def next_arrival(self) -> Optional[float]:
        """Arrival time of the request admission would consider next.

        Policy-dependent: under FIFO this is the *head's* arrival time —
        not the queue-wide minimum, because nothing behind a not-yet-
        arrived head can be admitted and fast-forwarding anywhere else
        would spin the drain loop forever.  The priority and fairness
        policies admit any arrived request, so they fast-forward to the
        earliest arrival in the queue.
        """
        return self.policy.next_arrival(self.queue)

    @property
    def kv_block_tokens(self) -> Optional[int]:
        """Block granularity of KV transfers (None for dense caches)."""
        return self.kv.block_tokens

    @property
    def kv_utilization(self) -> float:
        """Fraction of the KV budget in live use right now."""
        return self.kv.utilization

    @property
    def outstanding_tokens(self) -> int:
        """Token positions of work not yet executed (queued + running).

        Queued requests count their full prompt plus decode budget;
        running ones count only what remains.  This is the backlog a
        cluster router's least-loaded policy balances on.
        """
        total = 0
        for request in self.queue:
            total += request.n_prefill + request.max_new_tokens
        for request in self.running:
            total += max(0, request.n_prefill - request.next_pos)
            total += max(0, request.max_new_tokens - request.n_generated)
        return total

    def submit(self, request: Request) -> None:
        """Enqueue a request for admission."""
        in_flight = {r.request_id for r in self.queue}
        in_flight.update(r.request_id for r in self.running)
        if request.request_id in in_flight:
            raise ValueError(
                f"request id {request.request_id!r} is already in flight; "
                "ids must be unique among queued/running requests"
            )
        reason = self.kv.never_fits(
            request.total_positions(self.model_config.max_seq_len))
        if reason is not None:
            raise KVCapacityError(request.request_id, reason)
        request.arrival_seq = self._seq
        self._seq += 1
        self.queue.push(request)

    # ------------------------------------------------------------------
    def admit(self, now: float) -> List[Request]:
        """Admit queued requests while budgets allow; returns the admitted.

        Admission is policy-ordered with head-of-line blocking: the
        policy picks the next candidate (FIFO: the arrival-order head;
        priority/fairness: the most urgent arrived request) and if that
        candidate does not fit, nothing else is considered — a policy's
        chosen request is never overtaken by one it outranks.  The KV
        manager's ``claim`` decides the fit and says how many leading
        positions its cache already holds (a prefix hit), which the
        prefill then skips.
        """
        self._now = now
        max_seq_len = self.model_config.max_seq_len
        admitted: List[Request] = []
        while self.queue and len(self.running) < self.config.max_running:
            request = self.policy.select(self.queue, now)
            if request is None:
                break
            claim = self.kv.claim(
                request.prefill_tokens,
                request.total_positions(max_seq_len),
                bool(self.running),
            )
            if claim is None:
                break
            self.queue.remove(request)
            request.cache, hit = claim
            request.next_pos = hit
            request.prefix_hit_tokens += hit
            self.prefix_hit_tokens += hit
            self.total_prefill_tokens += request.n_prefill
            request.state = RequestState.PREFILL
            request.admitted_time = now
            self.running.append(request)
            admitted.append(request)
        return admitted

    # ------------------------------------------------------------------
    def adopt_midflight(
        self, request: Request, n_positions: int
    ) -> Optional[int]:
        """Admit a request already past prefill, allocating KV for it.

        The disaggregated-cluster handoff path: ``request`` finished its
        prompt (and first token) on another engine, and this scheduler
        must provide a cache holding ``n_positions`` context positions —
        the caller copies the transferred KV entries in afterwards.  The
        request joins ``running`` directly in DECODE state; its carried
        timestamps (arrival/admission/first token) are left untouched so
        latency metrics span the whole journey, not the hop.

        Returns the number of leading positions the KV manager already
        holds (a prefix hit) — those need no transfer — or ``None`` when
        capacity is unavailable right now and the caller should retry
        after some work drains.  Nothing is prefilled here, so neither
        prefill counter moves.
        """
        if not 0 < n_positions <= self.model_config.max_seq_len:
            raise ValueError("n_positions must be in (0, max_seq_len]")
        if len(self.running) >= self.config.max_running:
            return None
        claim = self.kv.claim(
            request.prompt_tokens[:n_positions],
            request.total_positions(self.model_config.max_seq_len),
            bool(self.running),
        )
        if claim is None:
            return None
        request.cache, hit = claim
        request.arrival_seq = self._seq
        self._seq += 1
        request.state = RequestState.DECODE
        self.running.append(request)
        return hit

    # ------------------------------------------------------------------
    # Block granting and preemption
    # ------------------------------------------------------------------
    def _preempt(self, victim: Request, beneficiary: Request) -> None:
        """Evict a running request; it will recompute on readmission."""
        self.kv.release(victim.cache)
        victim.cache = None
        if victim.generated_tokens:
            # Everything fed to the model so far: the prompt plus every
            # generated token except the pending one (which has not been
            # executed yet — it resumes decoding after the replay).
            victim.replay_tokens = (
                list(victim.prompt_tokens) + victim.generated_tokens[:-1]
            )
        victim.next_pos = 0
        victim.state = RequestState.QUEUED
        victim.n_preemptions += 1
        victim.last_preempt_time = self._now
        self.preemption_events.append(PreemptionEvent(
            victim_id=victim.request_id,
            victim_priority=victim.priority,
            beneficiary_id=beneficiary.request_id,
            beneficiary_priority=beneficiary.priority,
            time=self._now,
        ))
        self.running.remove(victim)
        self.queue.push_front(victim)

    def _grant_blocks(
        self, request: Request, n_positions: int, granted_ids: set
    ) -> bool:
        """Back ``request``'s next positions with KV, preempting if needed.

        Victims are chosen by the scheduling policy (FIFO: the latest
        admitted; priority/fairness: the least urgent tier, never one
        more urgent than ``request``), skipping the request itself and
        any request already holding slots in the step under construction
        (their positions are committed).  Returns False when no eligible
        victim remains and the KV manager still cannot grow the cache —
        the caller simply skips this request for the step.
        """
        while not self.kv.grow(request.cache, n_positions):
            victim = self.policy.pick_victim(
                [r for r in self.running if r is not request
                 and r.request_id not in granted_ids], request)
            if victim is None:
                return False
            self._preempt(victim, request)
        return True

    # ------------------------------------------------------------------
    def build_step(self) -> List[BatchSlot]:
        """Plan the token positions of the next batched step.

        Decoding requests contribute one position each, then prefilling
        requests contribute chunks of prompt positions until the step's
        token budget is exhausted.  Under chunked prefill the prefill
        phase is additionally capped by the shared per-step budget of
        ``prefill_chunk_tokens`` positions.  Slots of the same request
        are consecutive and in position order, which the functional
        executor requires.

        The scan order is the policy's: FIFO and fairness round-robin
        over the running set (so no request is starved of decode slots
        when the token budget is oversubscribed); priority scans urgent
        tiers first and round-robins within each tier.

        Each request's positions are backed by the KV manager before
        its slots are emitted; a request that cannot be backed even
        after preemption is skipped for this step.
        """
        budget = self.config.max_batch_tokens
        slots: List[BatchSlot] = []
        if not self.running:
            return slots
        n = len(self.running)
        order = self.policy.step_order(list(self.running), self._rotation)
        # Rotate whenever the token budget may not cover every running
        # request: more requests than budget, or speculative turns that
        # occupy K+1 slots each (crowding later requests out of the
        # step).  When everything fits the start index is irrelevant, so
        # rotating is safe either way.
        if n > self.config.max_batch_tokens or (
            self.drafter is not None and n > 1
        ):
            self._rotation += 1
        granted_ids: set = set()
        for request in order:
            if budget <= 0:
                break
            if request not in self.running:
                continue  # preempted while building this step
            if request.in_decode and request.pending_token is not None:
                draft = self._propose_draft(request, budget)
                # Draft positions are opportunistic: never preempt a
                # victim (whole-prefill recompute on readmission) just to
                # back them — drop the draft instead and let the turn
                # decode plainly.  Only the one guaranteed position may
                # preempt, exactly as without speculation.
                if draft and not self.kv.grow(
                    request.cache, request.next_pos + 1 + len(draft)
                ):
                    draft = []
                if not self._grant_blocks(
                    request, request.next_pos + 1, granted_ids
                ):
                    request.draft_tokens = []
                    continue
                request.draft_tokens = draft
                speculative = bool(draft)
                slots.append(BatchSlot(
                    token=request.pending_token,
                    pos=request.next_pos,
                    cache=request.cache,
                    need_logits=True,
                    request_id=request.request_id,
                    speculative=speculative,
                ))
                for offset, token in enumerate(draft):
                    slots.append(BatchSlot(
                        token=token,
                        pos=request.next_pos + 1 + offset,
                        cache=request.cache,
                        need_logits=True,
                        request_id=request.request_id,
                        speculative=True,
                    ))
                granted_ids.add(request.request_id)
                budget -= 1 + len(draft)
        # Prefill phase.  Legacy regime: each request takes up to
        # ``prefill_chunk`` positions, bounded only by the step budget.
        # Chunked regime: every prefilling request draws from one shared
        # per-step budget, so prompt processing never inflates a step
        # beyond ``decode slots + prefill_chunk_tokens`` positions.  The
        # throttle exists to bound the inter-token stall of in-flight
        # decodes, so it only engages when the step carries decode slots
        # — a pure-prefill step (cold start, post-drain) may use the full
        # budget; throttling it would only delay first tokens.
        throttle = self.config.chunked_prefill and bool(slots)
        chunk_budget = (min(budget, self.config.step_prefill_budget)
                        if throttle else budget)
        for request in order:
            if budget <= 0 or chunk_budget <= 0:
                break
            if request not in self.running:
                continue
            if not request.in_prefill:
                continue
            per_request = (request.prefill_remaining
                           if self.config.chunked_prefill
                           else self.config.prefill_chunk)
            chunk = min(per_request, request.prefill_remaining,
                        budget, chunk_budget)
            if chunk <= 0:
                continue
            if not self._grant_blocks(
                request, request.next_pos + chunk, granted_ids
            ):
                continue
            stream = request.prefill_tokens
            for offset in range(chunk):
                pos = request.next_pos + offset
                slots.append(BatchSlot(
                    token=stream[pos],
                    pos=pos,
                    cache=request.cache,
                    # The last prefill position computes the logits that
                    # seed decoding — unless a preempted request is
                    # replaying and its next token is already pending.
                    need_logits=(pos == request.n_prefill - 1
                                 and request.pending_token is None),
                    request_id=request.request_id,
                ))
            granted_ids.add(request.request_id)
            budget -= chunk
            chunk_budget -= chunk
        return slots

    # ------------------------------------------------------------------
    def _propose_draft(self, request: Request, budget: int) -> List[int]:
        """Draft tokens for one decode turn, clamped to every budget.

        The clamp covers the step's remaining token budget (a verify run
        of L draft tokens occupies ``L + 1`` slots), the request's
        remaining decode budget (at most ``L + 1`` tokens commit per
        run, so drafting past it is wasted verification), and the KV
        capacity / context window (every fed position must be storable).
        Anything the drafter returns beyond the clamp is discarded; an
        empty proposal degrades to plain single-token decoding.
        """
        if self.drafter is None or self.spec is None or budget <= 1:
            return []
        decode_budget = min(
            request.max_new_tokens,
            self.model_config.max_seq_len - request.n_prompt,
        )
        limit = min(
            self.spec.num_draft_tokens,
            budget - 1,
            decode_budget - request.n_generated - 1,
            self.model_config.max_seq_len - 1 - request.next_pos,
            request.cache.capacity - 1 - request.next_pos,
        )
        if limit <= 0:
            return []
        draft = self.drafter.propose(request, limit)
        # An out-of-vocabulary proposal cannot be fed to the model; keep
        # the valid prefix (truncating, not filtering, so every draft
        # token is still verified at the position it was proposed for).
        vocab = self.model_config.vocab_size
        clean: List[int] = []
        for token in draft[:limit]:
            token = int(token)
            if not 0 <= token < vocab:
                break
            clean.append(token)
        return clean

    # ------------------------------------------------------------------
    def note_progress(self, request: Request) -> None:
        """Register freshly prefilled full blocks for prefix sharing.

        The engine calls this after advancing a request's position; every
        block whose positions are now completely written (and fall inside
        the prefill stream, whose token content is known) becomes
        discoverable by later admissions (if the KV manager shares).
        """
        self.kv.register_prefix(
            request.prefill_tokens,
            request.cache,
            min(request.next_pos, request.n_prefill),
        )

    # ------------------------------------------------------------------
    def _release_running(self, request: Request) -> None:
        """Release a running request's KV memory and drop it from the set.

        Its fully-written prefill blocks are (re-)registered for prefix
        sharing *before* release, so a sharing KV manager parks them on
        its reusable list and later requests with the same prompt prefix
        can resurrect them instead of recomputing.  Shared by retirement
        and cancellation.
        """
        self.note_progress(request)
        self.kv.release(request.cache)
        self.running.remove(request)

    def finish(self, request: Request, now: float) -> None:
        """Retire a request and release its KV memory."""
        if request not in self.running:
            raise ValueError(f"request {request.request_id!r} is not running")
        request.state = RequestState.FINISHED
        request.finish_time = now
        self._release_running(request)

    # ------------------------------------------------------------------
    def cancel(self, request: Request) -> bool:
        """Abort a queued or running request, releasing its KV memory.

        A running request's KV claim is released immediately, so the
        capacity is available to the very next
        admission/step; its fully-written prefill blocks are registered
        for prefix sharing first, exactly as on normal retirement.
        Returns ``False`` when the request is not tracked (already
        finished or never submitted) — cancellation after completion is
        a harmless race, not an error.
        """
        if request in self.running:
            self._release_running(request)
            request.cache = None
            request.state = RequestState.CANCELLED
            request.finish_reason = "cancelled"
            return True
        if self.queue.remove(request):
            request.state = RequestState.CANCELLED
            request.finish_reason = "cancelled"
            return True
        return False
