"""Request model of the serving engine.

A :class:`Request` is one client generation job moving through the
continuous-batching pipeline.  Its lifecycle mirrors production LLM
servers:

``QUEUED`` → submitted, waiting for admission (KV budget / slot limits);
``PREFILL`` → admitted, prompt positions streaming through the model;
``DECODE`` → prompt consumed, generating one token per batched step;
``FINISHED`` → decode budget exhausted or EOS sampled;
``CANCELLED`` → aborted by the client before finishing (its KV memory
was released the moment the cancellation landed).

Under the paged KV scheduler a running request can also be *preempted*:
its blocks are freed and it returns to the front of the queue in
``QUEUED`` state, carrying ``replay_tokens`` — the prompt plus every
token generated so far except the still-pending one — so readmission
recomputes (or prefix-hits) the lost KV entries and then resumes decoding
exactly where it stopped.  ``prefill_tokens`` is the stream a prefill
actually feeds: the replay stream when one exists, the prompt otherwise.

The request carries everything the scheduler and engine need to resume it
at any step: its validated :class:`~repro.api.SamplingParams`, its
private KV cache, its private sampler (derived from the params in one
place — :meth:`SamplingParams.build_sampler` — so stochastic decodes are
reproducible regardless of batch composition or preemption replays), the
next position to execute, and the token to feed there.  Timestamps are in
*simulated* seconds on the engine's clock, which is what the latency and
queue-wait metrics report.

Construction accepts either a ``sampling`` params object (the frontend
API path) or the legacy loose fields (``max_new_tokens`` / ``sampler`` /
``stop_at_eos``), which are consolidated into a params object on init so
the rest of the stack sees exactly one configuration source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, Iterator, List, Optional

from ..api.params import SamplingParams
from ..kvpool.paged_cache import PagedKVCache
from ..llama.kv_cache import KVCache
from ..llama.sampler import Sampler

__all__ = ["Request", "RequestQueue", "RequestState"]


class RequestState(Enum):
    """Lifecycle stage of a serving request."""

    QUEUED = "queued"
    PREFILL = "prefill"
    DECODE = "decode"
    FINISHED = "finished"
    CANCELLED = "cancelled"


@dataclass
class Request:
    """One generation job tracked by the serving engine."""

    request_id: str
    prompt_tokens: List[int]
    max_new_tokens: int = 64
    sampler: Optional[Sampler] = None
    stop_at_eos: bool = True
    arrival_time: float = 0.0
    prompt: str = ""
    #: Validated sampling configuration.  When omitted, one is derived
    #: from the legacy loose fields above; when given, it is the single
    #: source of truth and the loose fields are overwritten from it.
    sampling: Optional[SamplingParams] = None
    #: SLO tier: smaller numbers are more urgent.  Mirrors
    #: ``sampling.priority`` (which wins when both are given); only the
    #: ``priority`` / ``fairness`` scheduling policies act on it.
    priority: int = 0
    #: Monotonic submission sequence number, stamped by the scheduler.
    #: Every scheduling-order tie (equal priority, equal arrival time)
    #: breaks on it, so admission and preemption order are deterministic
    #: — including preempted requests re-queued via ``push_front``,
    #: which keep their original number.
    arrival_seq: int = 0

    # Mutable progress state (owned by the scheduler/engine) ------------
    state: RequestState = RequestState.QUEUED
    cache: Optional[KVCache] = None
    next_pos: int = 0
    pending_token: Optional[int] = None
    generated_tokens: List[int] = field(default_factory=list)
    replay_tokens: Optional[List[int]] = None
    n_preemptions: int = 0
    #: Clock of the most recent preemption; a readmission's queued span
    #: starts here rather than at arrival.
    last_preempt_time: Optional[float] = None
    prefix_hit_tokens: int = 0
    #: Draft tokens the current step's verify run is scoring (set by the
    #: scheduler when it emits the run's slots, consumed by the engine's
    #: commit; empty outside a speculative decode turn).
    draft_tokens: List[int] = field(default_factory=list)
    #: Lifetime speculative-decoding accounting of this request.
    draft_tokens_proposed: int = 0
    draft_tokens_accepted: int = 0
    #: Why the request retired ("stop" / "length" / "cancelled").
    finish_reason: Optional[str] = None
    #: Visible-text truncation point set when a stop sequence matched.
    stop_text_limit: Optional[int] = None
    #: Incremental UTF-8 bytes of the decoded output, maintained by the
    #: engine's stop-sequence matcher (only when stop sequences are set).
    stop_byte_cache: Optional[bytearray] = None
    #: Per generated token: top-k token-id -> logprob maps, populated
    #: only when ``sampling.logprobs`` is set.
    logprobs: Optional[List[Dict[int, float]]] = None
    #: Engine-clock timestamp of every committed token, in commit order.
    #: Consecutive differences are the request's inter-token latencies
    #: (tokens committed by one speculative verify run share a
    #: timestamp: they reached the client together).
    token_times: List[float] = field(default_factory=list)

    # Simulated-clock timestamps ---------------------------------------
    admitted_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.prompt_tokens:
            raise ValueError("prompt_tokens must not be empty")
        if self.sampling is None:
            # Legacy construction: consolidate the loose fields (the
            # params validate them; an explicit sampler keeps its own
            # temperature/top_p/seed, so only budget and EOS policy are
            # taken from the loose fields in that case).
            if self.max_new_tokens <= 0:
                raise ValueError("max_new_tokens must be positive")
            self.sampling = SamplingParams(
                max_tokens=self.max_new_tokens,
                stop_at_eos=self.stop_at_eos,
            )
        self.max_new_tokens = self.sampling.max_tokens
        self.stop_at_eos = self.sampling.stops_at_eos
        if self.sampling.priority != 0:
            self.priority = self.sampling.priority
        if self.sampler is None:
            self.sampler = self.sampling.build_sampler()
        if self.sampling.logprobs is not None and self.logprobs is None:
            self.logprobs = []
        self.prompt_tokens = [int(t) for t in self.prompt_tokens]

    # ------------------------------------------------------------------
    @property
    def n_prompt(self) -> int:
        return len(self.prompt_tokens)

    @property
    def n_generated(self) -> int:
        return len(self.generated_tokens)

    @property
    def stop_strings(self) -> tuple:
        """Stop sequences that truncate this request's visible text."""
        return self.sampling.stop

    @property
    def is_finished(self) -> bool:
        return self.state is RequestState.FINISHED

    @property
    def is_cancelled(self) -> bool:
        return self.state is RequestState.CANCELLED

    @property
    def in_prefill(self) -> bool:
        return self.state is RequestState.PREFILL

    @property
    def in_decode(self) -> bool:
        return self.state is RequestState.DECODE

    @property
    def prefill_tokens(self) -> List[int]:
        """The token stream a prefill feeds: replay after preemption,
        the prompt otherwise."""
        if self.replay_tokens is not None:
            return self.replay_tokens
        return self.prompt_tokens

    @property
    def n_prefill(self) -> int:
        return len(self.prefill_tokens)

    @property
    def prefill_remaining(self) -> int:
        """Prefill positions not yet pushed through the model."""
        if self.state is not RequestState.PREFILL:
            return 0
        return self.n_prefill - self.next_pos

    @property
    def block_table(self) -> Optional[List[int]]:
        """Physical KV block ids backing this request (paged mode only)."""
        if not isinstance(self.cache, PagedKVCache):
            return None
        return list(self.cache.block_table)

    def total_positions(self, max_seq_len: int) -> int:
        """Worst-case KV footprint in positions (prompt + decode budget)."""
        return min(self.n_prompt + self.max_new_tokens, max_seq_len)

    # ------------------------------------------------------------------
    @property
    def queue_wait(self) -> Optional[float]:
        """Simulated seconds between arrival and admission."""
        if self.admitted_time is None:
            return None
        return self.admitted_time - self.arrival_time

    @property
    def time_to_first_token(self) -> Optional[float]:
        """Simulated seconds between arrival and the first sampled token."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def latency(self) -> Optional[float]:
        """Simulated end-to-end seconds between arrival and completion."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def inter_token_latencies(self) -> List[float]:
        """Gaps between consecutive committed tokens (simulated seconds).

        The first token's wait is TTFT, reported separately; a request
        that produced fewer than two tokens has no gaps.
        """
        times = self.token_times
        return [b - a for a, b in zip(times, times[1:])]


class RequestQueue:
    """FIFO admission queue with stable arrival order."""

    def __init__(self) -> None:
        self._queue: Deque[Request] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._queue)

    def push(self, request: Request) -> None:
        """Enqueue a request (it must still be QUEUED)."""
        if request.state is not RequestState.QUEUED:
            raise ValueError(
                f"request {request.request_id!r} is {request.state.value}, "
                "only queued requests can be enqueued"
            )
        self._queue.append(request)

    def push_front(self, request: Request) -> None:
        """Re-enqueue a preempted request at the head of the line.

        Preempted requests have the oldest admission claim, so they go
        back in front of everything still waiting (vLLM's recompute
        policy does the same) — otherwise a preemption would silently
        demote a request behind later arrivals.
        """
        if request.state is not RequestState.QUEUED:
            raise ValueError(
                f"request {request.request_id!r} is {request.state.value}, "
                "only queued requests can be enqueued"
            )
        self._queue.appendleft(request)

    def peek(self) -> Optional[Request]:
        """The request that would be admitted next, if any."""
        return self._queue[0] if self._queue else None

    def pop(self) -> Request:
        """Remove and return the head-of-line request."""
        if not self._queue:
            raise IndexError("pop from an empty request queue")
        return self._queue.popleft()

    def remove(self, request: Request) -> bool:
        """Drop a specific queued request (cancellation before admission).

        Returns ``False`` when the request is not in the queue.
        """
        try:
            self._queue.remove(request)
        except ValueError:
            return False
        return True
