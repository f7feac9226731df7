"""The serving engine: continuous batching over the simulated accelerator.

:class:`ServingEngine` is the synchronous facade.  It owns a
:class:`~repro.serve.scheduler.Scheduler` and a simulated clock, and each
:meth:`ServingEngine.step` call runs one *batched* accelerator step:

1. admit queued requests that fit the KV budget;
2. ask the scheduler for this step's token positions (decode positions of
   every in-flight request plus prefill chunks of newly admitted ones);
3. execute the positions functionally to get logits, and simulate the
   merged weight-stationary program to get cycles/traffic/energy;
4. advance the clock, sample next tokens where logits were produced, and
   retire requests that hit EOS or their decode budget.

Functionally this is exactly N independent ``SpeedLLM.generate`` calls —
each request keeps its own KV cache and its own seeded sampler, so the
generated tokens are identical to sequential one-shot generation.  Only
the *timing* differs: weight streaming, instruction dispatch and the
systolic fill/drain are amortized over the batch, which is where the
serving throughput comes from.

With a paged scheduler (``SchedulerConfig(paged=True)``) the KV budget is
block-granular (:mod:`repro.kvpool`): requests admit optimistically,
shared prompt prefixes map to shared physical blocks (their prefill
positions are skipped outright), allocation failures preempt the
lowest-priority request, and the timing simulation rounds each attention
read up to whole KV blocks so the modelled HBM sees the paged transfer
pattern.  Token streams remain identical — prefix sharing and preemption
replay change *which* positions execute, never what they compute.

With a speculative policy (``SchedulerConfig(speculative=SpecConfig())``)
each decode turn becomes a *verify run*: a :class:`~repro.spec.Drafter`
proposes up to K tokens, the scheduler emits them as extra slots, one
batched pass scores all K+1 positions (streaming every weight tile once
— the whole point), and :func:`~repro.spec.verify_run` decides which
tokens commit.  Greedy runs commit exactly the tokens plain greedy
decoding would; rejected positions roll the KV cache back
(``truncate``), block-granularly in paged mode.

Execution is delegated to an :class:`~repro.backend.ExecutionBackend`:
by default it runs steps on the one simulated accelerator, and built
with a tensor-parallel degree it runs them over several simulated
accelerators joined by a modelled interconnect.  The engine's job is the
same either way — plan, execute, advance the clock, sample — and the
token streams are identical at every degree.

Submission goes through the frontend API (:mod:`repro.api`):
``submit(prompt, SamplingParams(...))`` validates once, admits once, and
returns a :class:`~repro.api.RequestHandle` that streams incremental
:class:`~repro.api.RequestOutput` increments (new tokens, detokenized
delta, finish reason) while the batch advances.

:class:`AsyncServingEngine` wraps the same engine for asyncio callers:
``await engine.generate(...)`` submits a request and resolves when it
completes, and ``async for out in engine.stream(...)`` yields the same
incremental outputs, with a single cooperative driver task stepping the
batch while any request is in flight.  Cancelling a pending ``generate``
— or abandoning a ``stream`` mid-flight — aborts the request and frees
its KV memory; the driver keeps stepping the rest.
"""

from __future__ import annotations

# asyncio is imported where AsyncServingEngine uses it, so that only its
# callers load it and not every process that imports repro.
import dataclasses
import itertools
from typing import (TYPE_CHECKING, AsyncIterator, Callable, Dict, Iterable,
                    Iterator, List, Optional, Sequence, Tuple)

import numpy as np

from ..accel.accelerator import SpeedLLMAccelerator
from ..api.errors import FrontendError, PromptTooLongError
from ..api.outputs import RequestHandle, RequestOutput
from ..api.params import SamplingParams
from ..backend import ExecutionBackend
from ..llama.tokenizer import BOS_ID, EOS_ID, UNK_ID
from ..obs import tracer as spans
from ..obs.registry import MetricsRegistry, count_step
from ..obs.tracer import NULL_TRACER, Tracer, trace_step
from ..spec import build_drafter, verify_run
from .metrics import (Admission, RequestMetrics, RequestStep, ServeReport,
                      StepRecord, StepTotals)
from .request import Request, RequestState
from .scheduler import Scheduler, SchedulerConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.speedllm import SpeedLLM

__all__ = ["ServingEngine", "AsyncServingEngine"]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    x = np.asarray(logits, dtype=np.float64)
    shifted = x - np.max(x)
    return shifted - np.log(np.exp(shifted).sum())


def _top_logprobs(logits: np.ndarray, k: int, sampled: int) -> Dict[int, float]:
    """Logprobs of the ``k`` most likely tokens plus the sampled one."""
    logprobs = _log_softmax(logits)
    k = min(k, len(logprobs))
    top = np.argpartition(-logprobs, k - 1)[:k]
    top = top[np.argsort(-logprobs[top])]
    entry = {int(t): float(logprobs[t]) for t in top}
    entry.setdefault(sampled, float(logprobs[sampled]))
    return entry


def workload_submissions(
    workloads: Iterable,
    params: Optional[SamplingParams] = None,
    arrivals: Optional[Sequence[float]] = None,
) -> Iterator[Tuple[str, SamplingParams, Dict[str, float]]]:
    """The ``submit`` calls that serve a suite — ``(prompt, params,
    keywords)`` per workload — for :meth:`ServingEngine.serve` and
    :meth:`repro.cluster.ClusterEngine.serve`.  ``arrival_time`` is
    passed only when ``arrivals`` is given, so each engine's own default
    arrival applies otherwise.
    """
    params = params or SamplingParams()
    workloads = list(workloads)
    if arrivals is not None and len(arrivals) != len(workloads):
        raise ValueError("arrivals must match the workload count")
    for i, workload in enumerate(workloads):
        priority = getattr(workload, "priority", 0) or params.priority
        yield (
            workload.prompt,
            dataclasses.replace(params, max_tokens=workload.max_new_tokens,
                                priority=priority),
            {} if arrivals is None else {"arrival_time": arrivals[i]},
        )


class ServingEngine:
    """Synchronous continuous-batching server over one ``SpeedLLM`` stack."""

    def __init__(
        self,
        llm: SpeedLLM,
        scheduler_config: Optional[SchedulerConfig] = None,
        backend: Optional[ExecutionBackend] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """``tracer`` collects request-lifecycle spans (the default
        :data:`~repro.obs.NULL_TRACER` records nothing); ``metrics`` is
        an optional live registry fed every step.  Neither changes a
        generated token or a reported number — ``TestTracingIsPassive``
        in ``tests/obs/test_reconciliation.py`` pins this."""
        self.llm = llm
        self.accelerator: SpeedLLMAccelerator = llm.accelerator
        self.tokenizer = llm.tokenizer
        self.backend: ExecutionBackend = backend or ExecutionBackend(llm.accelerator)
        self.platform = self.backend.platform
        self.model_config = llm.model_config
        self.quant = self.accelerator.config.quant
        self.scheduler = Scheduler(
            self.model_config, scheduler_config,
            kv_shards=self.backend.kv_shards,
            kv_quant=self.quant.kv,
        )
        self.spec_config = self.scheduler.spec
        self.drafter = None
        if self.spec_config is not None:
            self.drafter = build_drafter(self.spec_config, llm)
            self.scheduler.attach_drafter(self.drafter)
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: Lane this engine's spans and series carry (one per replica).
        self.trace_track = "engine-0"
        self.clock = 0.0
        self._ids = itertools.count()
        #: Completion observer, called with each retiring request *before*
        #: its KV memory is released — the only moment a finished
        #: request's cache contents can still be read.  The cluster
        #: layer's disaggregated mode harvests prompt KV for handoff
        #: here and returns True: another engine continues the request
        #: and reports it, so none is logged here.  None costs nothing.
        self.on_finish: Optional[Callable[[Request], bool]] = None
        self._submitted: List[Request] = []
        self._completed: List[Request] = []
        #: Sum of every executed step's totals: the one place this
        #: engine's counters live.
        self.totals = StepTotals(
            shard_utilization_sums=[0.0] * self.backend.n_shards)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt: str,
        params: Optional[SamplingParams] = None,
        *,
        request_id: Optional[str] = None,
        arrival_time: Optional[float] = None,
    ) -> RequestHandle:
        """Enqueue a generation request; returns its streaming handle.

        ``params`` is a validated :class:`~repro.api.SamplingParams`
        (the defaults when omitted).

        Raises :class:`~repro.api.PromptTooLongError` when the prompt
        leaves no room to decode even one token; a decode budget that
        overflows the context window is clamped here, at admission, so
        the overflow never has to be discovered mid-decode.
        """
        return self.submit_tokens(
            self.llm.encode(prompt), params, prompt=prompt,
            request_id=request_id, arrival_time=arrival_time)

    def submit_tokens(
        self,
        tokens: List[int],
        params: Optional[SamplingParams] = None,
        *,
        prompt: str = "",
        request_id: Optional[str] = None,
        arrival_time: Optional[float] = None,
    ) -> RequestHandle:
        """:meth:`submit` for a caller that already holds the encoded
        prompt (a cluster tokenises once, to route): same checks, same
        request."""
        params = params or SamplingParams()
        max_seq_len = self.model_config.max_seq_len
        if len(tokens) >= max_seq_len:
            raise PromptTooLongError(len(tokens), max_seq_len)
        request = Request(
            request_id=request_id or f"req-{next(self._ids)}",
            prompt_tokens=tokens,
            sampling=params.capped(max_seq_len, len(tokens)),
            arrival_time=self.clock if arrival_time is None else arrival_time,
            prompt=prompt,
        )
        self.scheduler.submit(request)
        self._submitted.append(request)
        return RequestHandle(self, request)

    # ------------------------------------------------------------------
    # Disaggregated handoff (cluster serving)
    # ------------------------------------------------------------------
    def adopt_handoff(
        self,
        request: Request,
        keys: np.ndarray,
        values: np.ndarray,
        n_positions: int,
    ) -> Optional[int]:
        """Adopt a mid-flight request whose context KV came from elsewhere.

        The decode side of disaggregated prefill: ``request`` carries a
        pending first token and ``keys`` / ``values`` hold its prompt's
        KV entries (``[n_layers, n_positions, kv_dim]``, as computed by
        the prefill replica).  The scheduler allocates a cache, any
        leading positions already in this engine's prefix cache are
        adopted in place, and the rest are copied in — after which the
        request decodes here exactly as if it had prefilled locally.

        Returns the locally prefix-hit position count (the caller prices
        the KV transfer on the remainder), or ``None`` when the engine
        cannot take the request right now.
        """
        hit = self.scheduler.adopt_midflight(request, n_positions)
        if hit is None:
            return None
        request.cache.write(hit, keys[:, hit:n_positions],
                            values[:, hit:n_positions])
        # Register the adopted prompt blocks for prefix sharing, so later
        # requests (and later turns of the same session) hit them.
        self.scheduler.note_progress(request)
        return hit

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> List[Request]:
        """Run one batched accelerator step; returns requests finished by it.

        It emits nothing while it works: its one :class:`StepRecord` goes
        to the tracer's and the registry's views of it at the end."""
        scheduler = self.scheduler
        first_event = len(scheduler.preemption_events)
        admitted = [Admission(request, request.last_preempt_time)
                    for request in scheduler.admit(self.clock)]
        slots = scheduler.build_step()
        # Sampled after step building so a request admitted and preempted
        # within the same step never counts toward peak concurrency.
        totals = self.totals
        peak_running = max(totals.peak_running, len(scheduler.running))
        start = self.clock
        requests: List[RequestStep] = []
        step_totals = cycle_spans = None
        if slots:
            step = self.backend.execute_step(
                slots, kv_block_tokens=scheduler.kv_block_tokens
            )
            cycle_spans = step.cycle_spans
            self.clock += step.seconds
            # The step's totals.  Scheduler counters enter as their
            # movement since the last executed step; the commit loop adds
            # spec outcomes.
            step_totals = StepTotals(
                n_steps=1,
                total_slots=len(slots),
                kv_utilization_sum=scheduler.kv_utilization,
                n_preemptions=(len(scheduler.preemption_events)
                               - totals.n_preemptions),
                prefix_hit_tokens=(scheduler.prefix_hit_tokens
                                   - totals.prefix_hit_tokens),
                total_prefill_tokens=(scheduler.total_prefill_tokens
                                      - totals.total_prefill_tokens),
                compute_seconds=step.compute_seconds,
                interconnect_seconds=step.interconnect_seconds,
                busy_cycles=(step.engine_busy.get("mpe", 0)
                             + step.engine_busy.get("sfu", 0)),
                counters=step.counters,
                shard_utilization_sums=step.shard_utilization,
                **vars(step.compile_work),
            )
            groups: Dict[str, List[tuple]] = {}
            for slot, output in zip(slots, step.outputs):
                groups.setdefault(slot.request_id, []).append((slot, output))
            for request in list(scheduler.running):
                entries = groups.get(request.request_id)
                if not entries:
                    continue
                # What the step found, before the commit flips states
                # (prefill → decode) and consumes draft-token lists.
                phase = spans.PREFILL if request.in_prefill else spans.DECODE
                blocks = request.block_table
                drafted = len(request.draft_tokens)
                accepted = request.draft_tokens_accepted
                first_index = request.n_generated
                n_completed = len(self._completed)
                if request.in_prefill:
                    last_slot, last_output = entries[-1]
                    request.next_pos = last_slot.pos + 1
                    # Register freshly completed prefill blocks for
                    # sharing.  Decode steps never complete a prefill
                    # block, so skip the index walk once the prompt is
                    # consumed.
                    scheduler.note_progress(request)
                    if request.next_pos >= request.n_prefill:
                        request.state = RequestState.DECODE
                    if request.in_decode and last_slot.need_logits:
                        self._commit_token(
                            request, request.sampler.sample(last_output),
                            last_output)
                elif request.in_decode:
                    self._commit_decode(request, entries, step_totals)
                requests.append(RequestStep(
                    request, phase, n_slots=len(entries),
                    start_pos=entries[0][0].pos,
                    kv_blocks=None if blocks is None else len(blocks),
                    drafted=drafted,
                    accepted=request.draft_tokens_accepted - accepted,
                    first_index=first_index,
                    tokens=request.generated_tokens[first_index:],
                    reported=len(self._completed) > n_completed))
            totals = totals + step_totals
        else:
            # Nothing is runnable right now.  If requests are still due
            # to arrive on the simulated clock, fast-forward to the next
            # arrival so draining makes progress through idle gaps.
            next_arrival = scheduler.next_arrival
            if next_arrival is not None and next_arrival > self.clock:
                self.clock = next_arrival
        if peak_running > totals.peak_running:
            # A fresh object: the previous step's record may hold this one.
            totals = dataclasses.replace(totals, peak_running=peak_running)
        self.totals = totals
        record = StepRecord(
            self.trace_track, start, self.clock, admitted,
            preempted=scheduler.preemption_events[first_event:],
            requests=requests, totals=step_totals, engine_totals=self.totals,
            cycle_spans=cycle_spans,
            seconds_per_cycle=self.platform.cycles_to_seconds(1),
            n_running=len(scheduler.running), n_queued=len(scheduler.queue))
        trace_step(self.tracer, record)
        count_step(self.metrics, record)
        return [entry.request for entry in requests
                if entry.request.is_finished]

    def _commit_decode(self, request: Request, entries: List[tuple],
                       totals: StepTotals) -> None:
        """Commit one decode turn's verify run.

        ``entries`` are the request's ``(slot, output)`` pairs in
        position order: the pending token's slot first, then one slot per
        draft token the scheduler emitted.  :func:`repro.spec.verify_run`
        decides the committed tokens (exactly one when no draft ran —
        plain decoding); each commits through the same per-token path as
        non-speculative decoding (logprobs, EOS, stop sequences, budget),
        stopping early when the request retires mid-run.  Afterwards the
        KV cache rolls back past the last position whose written entry is
        still valid — rejected draft positions are truncated block-
        granularly in paged mode, by length in reservation mode.
        """
        slots = [slot for slot, _ in entries]
        logit_rows = [output for _, output in entries]
        draft = request.draft_tokens
        request.draft_tokens = []
        if len(slots) != len(draft) + 1:
            raise RuntimeError(
                f"request {request.request_id!r} executed {len(slots)} "
                f"decode slots for {len(draft)} draft tokens"
            )
        base_pos = slots[0].pos
        outcome = verify_run(draft, logit_rows, request.sampler)
        if self.spec_config is not None:
            # Draft-less turns of a speculative engine still count: the
            # tokens-per-decode-step metric must reflect every turn, not
            # only the lucky ones.  A plain engine keeps all-zero
            # counters.
            totals.spec_decode_steps += 1
            totals.spec_draft_tokens += outcome.n_draft
            totals.spec_accepted_tokens += outcome.n_accepted
            request.draft_tokens_proposed += outcome.n_draft
            request.draft_tokens_accepted += outcome.n_accepted
        n_committed = 0
        for token, logits in zip(outcome.committed, outcome.logits):
            n_committed += 1
            request.next_pos = base_pos + n_committed
            self._commit_token(request, token, logits)
            if request.is_finished:
                break
        if self.spec_config is not None:
            totals.spec_committed_tokens += n_committed
        if not request.is_finished and n_committed < len(slots):
            # Positions past the last accepted one hold rejected draft
            # KV entries; drop them so the next step re-executes from the
            # corrected token.  (A retired request's cache is released
            # wholesale by the scheduler instead.)
            request.cache.truncate(base_pos + n_committed)

    def _commit_token(self, request: Request, token: int, logits) -> None:
        """Record one committed token, retiring the request if it is done.

        ``request.next_pos`` must already point one past the token's
        position.  The order of checks mirrors
        ``SpeedLLMAccelerator.generate``: the token is always recorded
        (EOS included), then the request retires on EOS or a matched stop
        sequence (``finish_reason "stop"``), or on an exhausted decode
        budget / context window (``finish_reason "length"``).  The decode
        budget was clamped to the window at admission, so the window
        checks here are belt and braces for directly-constructed
        requests.
        """
        request.generated_tokens.append(token)
        request.token_times.append(self.clock)
        if request.first_token_time is None:
            request.first_token_time = self.clock
        if request.logprobs is not None:
            request.logprobs.append(
                _top_logprobs(logits, request.sampling.logprobs, token)
            )
        reason: Optional[str] = None
        if request.stop_at_eos and token == EOS_ID:
            reason = "stop"
        if reason is None and request.stop_strings:
            reason = self._match_stop(request)
        decode_budget = min(
            request.max_new_tokens,
            self.model_config.max_seq_len - request.n_prompt,
        )
        if reason is None and (
            request.n_generated >= decode_budget
            or request.next_pos >= self.model_config.max_seq_len
        ):
            reason = "length"
        if reason is not None:
            request.finish_reason = reason
            handed_off = (self.on_finish is not None
                          and self.on_finish(request))
            self.scheduler.finish(request, self.clock)
            if self.drafter is not None:
                self.drafter.release(request)
            if not handed_off:
                # One site admits a request to the report's population.
                # (A handed-off stub is reported end to end by the engine
                # that adopts it; only its steps and stage spans stay.)
                self._completed.append(request)
            return
        request.pending_token = token

    def _token_bytes(self, token: int) -> bytes:
        """The UTF-8 bytes a token contributes to the decoded text."""
        if token in (BOS_ID, EOS_ID, UNK_ID):
            return b""
        return self.tokenizer.id_to_token(token)

    def _match_stop(self, request: Request) -> Optional[str]:
        """Check for a completed stop sequence; truncate on match.

        Matching is byte-level and incremental: the request carries the
        UTF-8 bytes of its decoded output, each sampled token appends its
        bytes, and only the tail window in which a match could newly
        complete is searched — O(stop length) per token instead of
        re-detokenizing the whole stream.  A byte-level hit always
        decodes to the stop string (UTF-8 lead and continuation bytes
        cannot alias each other), so this is equivalent to searching the
        decoded text; only requests with stop sequences pay any of it.
        """
        cache = request.stop_byte_cache
        if cache is None:
            cache = bytearray()
            for token in request.generated_tokens[:-1]:
                cache += self._token_bytes(token)
            request.stop_byte_cache = cache
        appended = self._token_bytes(request.generated_tokens[-1])
        cache += appended
        stops = [stop.encode("utf-8") for stop in request.stop_strings]
        longest = max(len(stop) for stop in stops)
        # A new match must end inside the appended bytes; anything that
        # ended earlier would have been found on a previous token.
        start = max(0, len(cache) - len(appended) - longest + 1)
        window = bytes(cache[start:])
        cut = min(
            (start + idx
             for idx in (window.find(stop) for stop in stops) if idx >= 0),
            default=None,
        )
        if cut is None:
            return None
        # Convert the byte offset to the char offset visible_text slices.
        request.stop_text_limit = len(
            bytes(cache[:cut]).decode("utf-8", errors="replace"))
        return "stop"

    # ------------------------------------------------------------------
    # Output text
    # ------------------------------------------------------------------
    def visible_text(self, request: Request) -> str:
        """The request's client-visible text: decoded and stop-truncated."""
        text = self.tokenizer.decode(request.generated_tokens)
        if request.stop_text_limit is not None:
            return text[:request.stop_text_limit]
        return text

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, request) -> bool:
        """Abort a queued or running request (or its handle).

        Its KV blocks (or reservation) are released immediately, so the
        freed capacity is available to the next admission and step; the
        remaining requests keep decoding unaffected.  Returns ``False``
        when the request already finished — a harmless race.
        """
        # Accept the RequestHandle the new submit() returns as well as
        # the raw Request the legacy surface handed out.
        request = getattr(request, "request", request)
        cancelled = self.scheduler.cancel(request)
        if cancelled and self.drafter is not None:
            self.drafter.release(request)
        if cancelled:
            record = StepRecord(track=self.trace_track, start=self.clock,
                                end=self.clock, cancelled=(request,))
            trace_step(self.tracer, record)
            count_step(self.metrics, record)
        return cancelled

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def run(self, max_steps: Optional[int] = None) -> ServeReport:
        """Step until every submitted request has finished; report."""
        steps = 0
        while self.scheduler.has_work:
            if max_steps is not None and steps >= max_steps:
                raise RuntimeError(
                    f"serving did not drain within {max_steps} steps"
                )
            self.step()
            steps += 1
        return self.report()

    def serve(
        self,
        workloads: Iterable,
        params: Optional[SamplingParams] = None,
        arrivals: Optional[Sequence[float]] = None,
    ) -> ServeReport:
        """Submit a suite of workloads and drain them.

        ``workloads`` yields objects with ``prompt`` and ``max_new_tokens``
        attributes (e.g. :class:`repro.workloads.prompts.Workload`).  Each
        workload's decode budget overrides ``params.max_tokens``; a
        workload's ``priority`` attribute, when present and non-default,
        overrides ``params.priority``.  ``arrivals`` supplies per-request
        arrival times (everything arrives now when omitted).  The
        signature is :meth:`repro.cluster.ClusterEngine.serve`'s.
        """
        for prompt, request_params, when in workload_submissions(
                workloads, params, arrivals):
            self.submit(prompt, request_params, **when)
        return self.run()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def result_for(self, request) -> RequestMetrics:
        """Per-request metrics record (the request must have finished)."""
        request = getattr(request, "request", request)
        return RequestMetrics.from_request(request, self.visible_text(request))

    def results(self) -> List[RequestMetrics]:
        """Per-request metrics in submission order (run must have drained)."""
        return [self.result_for(request) for request in self._submitted]

    def streams(self) -> List[List[int]]:
        """Generated token streams in submission order."""
        return [list(request.generated_tokens) for request in self._submitted]

    def report(self) -> ServeReport:
        """Aggregate metrics over every request completed so far — a pure
        view of :attr:`totals`, the completion log and the clock."""
        totals = self.totals
        scheduler = self.scheduler
        spec = self.spec_config
        return ServeReport(
            **vars(totals),
            requests=[self.result_for(r) for r in self._completed],
            makespan_seconds=self.clock,
            energy=self.backend.energy_for(
                totals.counters, totals.busy_cycles, self.clock),
            policy=scheduler.config.policy,
            chunked_prefill=scheduler.config.chunked_prefill,
            paged=scheduler.config.paged,
            n_shards=self.backend.n_shards,
            quant=self.quant.label if self.quant.streams_scales else None,
            spec_method=spec.method if spec is not None else None,
        )


class AsyncServingEngine:
    """Asyncio wrapper: awaitable per-request generation over one engine.

    A single cooperative driver task advances the batch while any request
    is in flight; each ``generate`` call resolves with that request's
    :class:`~repro.serve.metrics.RequestMetrics` when it retires.  Steps
    run on the event loop (the simulation is CPU-bound and deterministic);
    the driver yields between steps so new requests submitted by other
    coroutines join the very next batch — continuous batching across
    concurrent callers.
    """

    def __init__(
        self,
        llm: Optional["SpeedLLM"] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        backend: Optional[ExecutionBackend] = None,
        engine: Optional[ServingEngine] = None,
    ) -> None:
        """Wrap a pre-built ``engine``, or build one from ``llm`` (+
        optional scheduler config and backend) exactly like
        :class:`ServingEngine`."""
        if engine is None:
            if llm is None:
                raise FrontendError(
                    "AsyncServingEngine needs either an llm or an engine")
            engine = ServingEngine(llm, scheduler_config, backend=backend)
        elif llm is not None or scheduler_config is not None or backend is not None:
            raise FrontendError(
                "pass either a pre-built engine or llm/scheduler_config/"
                "backend, not both")
        self.engine = engine
        self._futures: Dict[str, "asyncio.Future[RequestMetrics]"] = {}
        self._driver: Optional["asyncio.Task"] = None

    def _ensure_driver(self) -> None:
        """(Re)start the cooperative stepping task if it is not running."""
        if self._driver is None or self._driver.done():
            import asyncio
            loop = asyncio.get_running_loop()
            self._driver = loop.create_task(self._drive())

    async def generate(
        self,
        prompt: str,
        params: Optional[SamplingParams] = None,
    ) -> RequestMetrics:
        """Submit a request and wait for its completion.

        Cancelling the awaiting task aborts the request: its KV memory is
        released immediately and the driver keeps stepping every other
        in-flight request.
        """
        import asyncio
        loop = asyncio.get_running_loop()
        handle = self.engine.submit(prompt, params)
        future: "asyncio.Future[RequestMetrics]" = loop.create_future()
        self._futures[handle.request_id] = future
        self._ensure_driver()
        try:
            return await future
        except asyncio.CancelledError:
            self._futures.pop(handle.request_id, None)
            self.engine.cancel(handle.request)
            raise

    async def stream(
        self,
        prompt: str,
        params: Optional[SamplingParams] = None,
    ) -> AsyncIterator[RequestOutput]:
        """Submit a request and yield its incremental outputs.

        The async-generator twin of :meth:`ServingEngine.submit`'s
        streaming handle: each yielded :class:`~repro.api.RequestOutput`
        carries the tokens sampled since the previous one plus the
        detokenized text delta, and the final one carries the finish
        reason.  Abandoning the stream (``aclose()``, task cancellation,
        breaking out of ``async for``) cancels the request — its KV
        memory is freed immediately while the driver keeps stepping every
        other in-flight request.
        """
        import asyncio
        handle = self.engine.submit(prompt, params)
        self._ensure_driver()
        try:
            while True:
                output = handle.poll()
                if output is not None:
                    yield output
                    if output.finished:
                        return
                    continue
                driver = self._driver
                if driver is not None and driver.done():
                    if not driver.cancelled() and driver.exception() is not None:
                        raise driver.exception()
                    if not handle.finished:
                        # The driver drained between polls (or was
                        # cancelled); restart it for this request.
                        self._ensure_driver()
                # Let the driver run a step before polling again.
                await asyncio.sleep(0)
        finally:
            if not handle.finished:
                self.engine.cancel(handle.request)

    async def _drive(self) -> None:
        import asyncio
        engine = self.engine
        try:
            while engine.scheduler.has_work:
                for request in engine.step():
                    future = self._futures.pop(request.request_id, None)
                    if future is not None and not future.done():
                        future.set_result(engine.result_for(request))
                # Yield so concurrently-submitted requests join the next step.
                await asyncio.sleep(0)
        except BaseException as exc:
            # Fail every pending waiter instead of hanging them forever.
            pending, self._futures = self._futures, {}
            for future in pending.values():
                if not future.done():
                    future.set_exception(exc)
            # The waiters now own the exception; re-raising here would
            # only produce an unretrieved-task warning.  Propagate when
            # nobody was waiting (so the failure is not lost) and always
            # propagate cancellation.
            if not pending or isinstance(exc, asyncio.CancelledError):
                raise

    def report(self) -> ServeReport:
        """Aggregate report over everything served so far."""
        return self.engine.report()
