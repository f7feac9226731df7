"""Disaggregated prefill/decode: KV handoff between replica pools.

Prefill and decode want different machines: prefill is compute-bound
(hundreds of positions per request, one weight pass amortized over all
of them) while decode is bandwidth-bound (one position per request per
step, the weight stream dominating).  Disaggregated serving therefore
splits the cluster into a *prefill pool* that runs prompts and a
*decode pool* that runs generation, at the price of moving each
request's prompt KV cache between pools.

The mechanics here mirror the production pattern (DistServe,
Mooncake-style KV transfer) on the simulated cluster:

1. The router sends an arriving request to a prefill replica with its
   decode budget clamped to **one** token — the engine runs the prompt
   and samples the first token exactly as a unified engine would (same
   sampler state, same logits), then retires the stub.
2. :func:`harvest_handoff` snapshots the finishing prompt's KV entries
   into a :class:`HandoffPacket` from the engine's ``on_finish``
   observer — the last moment the retiring stub's cache is readable —
   along with everything the decode side needs to resume mid-flight: the
   original sampling params, the *live sampler object* (its RNG state
   must continue uninterrupted for seeded token identity), the first
   token and its timestamps.
3. :func:`build_continuation` rebuilds the request on the decode side:
   first token pending, ``next_pos`` past the prompt, timestamps carried
   so TTFT/queue-wait span the whole journey.  The cluster engine prices
   the transfer as ``bytes x positions`` over a point-to-point link of
   the existing interconnect cost model and delivers the packet no
   earlier than ``prefill finish + transfer time``; positions already in
   the decode replica's prefix cache (a session's earlier turns) are
   not transferred at all.

A request that finishes *at* the prefill stage — EOS on the first token,
a stop string, or an original budget of one — never hands off: its stub
is the complete request and stays in the prefill replica's report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..api.params import SamplingParams
from ..llama.kv_cache import KVCache
from ..llama.sampler import Sampler
from ..serve.engine import ServingEngine
from ..serve.request import Request, RequestState

__all__ = ["HandoffPacket", "build_continuation", "harvest_handoff",
           "needs_handoff"]


@dataclass
class HandoffPacket:
    """Everything a decode replica needs to resume a prefilled request."""

    request_id: str
    prompt: str
    prompt_tokens: List[int]
    #: The request's original (capped) sampling params — the stub the
    #: prefill replica ran had ``max_tokens`` clamped to 1.
    sampling: SamplingParams
    #: The live sampler: reusing the object continues its RNG stream, so
    #: seeded stochastic decodes stay byte-identical to a unified engine.
    sampler: Sampler
    first_token: int
    #: KV entries of the prompt, ``[n_layers, n_positions, kv_dim]``.
    keys: np.ndarray
    values: np.ndarray
    n_positions: int
    bytes_per_position: int
    #: Prefill-replica clock when the prompt finished; the transfer
    #: departs here.
    finish_clock: float
    # Carried request state and timestamps (cluster-wide simulated clock).
    arrival_time: float
    admitted_time: Optional[float]
    first_token_time: Optional[float]
    n_preemptions: int = 0
    prefix_hit_tokens: int = 0
    logprobs: Optional[List[Dict[int, float]]] = None


def needs_handoff(request: Request, capped: SamplingParams) -> bool:
    """Whether a finished prefill stub must continue on a decode replica.

    ``capped`` is the request's original sampling params after the
    context-window clamp.  No handoff when the stub retired for a real
    reason ("stop": EOS or a matched stop string — a unified engine
    would have stopped there too) or when the original budget was a
    single token (the stub's "length" retirement is the real one).
    """
    return request.finish_reason == "length" and capped.max_tokens > 1


def harvest_handoff(
    engine: ServingEngine, request: Request, capped: SamplingParams
) -> HandoffPacket:
    """Snapshot a finishing prefill stub into a transferable packet.

    Must be called from the engine's ``on_finish`` observer — the moment
    a retiring request's cache is still live.  Once the scheduler
    releases it, a paged cache's block table empties and the entries are
    unreachable.  The snapshot copies the KV entries out, so the packet
    stays valid however long the transfer and delivery take.
    """
    if request.cache is None:
        raise ValueError(
            f"request {request.request_id!r} has no cache to harvest")
    n_positions = request.next_pos
    if n_positions != request.n_prompt:
        raise ValueError(
            f"request {request.request_id!r} finished at position "
            f"{n_positions}, expected its prompt length {request.n_prompt}")
    config = engine.model_config
    keys = np.stack([
        np.array(request.cache.keys(layer, n_positions), copy=True)
        for layer in range(config.n_layers)
    ])
    values = np.stack([
        np.array(request.cache.values(layer, n_positions), copy=True)
        for layer in range(config.n_layers)
    ])
    return HandoffPacket(
        request_id=request.request_id,
        prompt=request.prompt,
        prompt_tokens=list(request.prompt_tokens),
        sampling=capped,
        sampler=request.sampler,
        first_token=request.generated_tokens[-1],
        keys=keys,
        values=values,
        n_positions=n_positions,
        bytes_per_position=KVCache.bytes_per_position(config),
        finish_clock=engine.clock,
        arrival_time=request.arrival_time,
        admitted_time=request.admitted_time,
        first_token_time=request.first_token_time,
        n_preemptions=request.n_preemptions,
        prefix_hit_tokens=request.prefix_hit_tokens,
        logprobs=request.logprobs,
    )


def build_continuation(packet: HandoffPacket) -> Request:
    """Rebuild the request for adoption by a decode replica.

    The continuation is exactly the state a unified engine would hold
    after sampling the first token: prompt consumed (``next_pos`` past
    it), the first token committed and pending, the original decode
    budget restored, and the same sampler object continuing its RNG
    stream.  Timestamps carry over so queue-wait/TTFT measure the
    prefill stage, and finish-time metrics span both replicas' work on
    the one shared simulated timeline.
    """
    request = Request(
        request_id=packet.request_id,
        prompt_tokens=list(packet.prompt_tokens),
        sampling=packet.sampling,
        sampler=packet.sampler,
        arrival_time=packet.arrival_time,
        prompt=packet.prompt,
        logprobs=packet.logprobs,
    )
    request.state = RequestState.QUEUED
    request.next_pos = packet.n_positions
    request.pending_token = packet.first_token
    request.generated_tokens = [packet.first_token]
    request.token_times = ([packet.first_token_time]
                           if packet.first_token_time is not None else [])
    request.first_token_time = packet.first_token_time
    request.admitted_time = packet.admitted_time
    request.n_preemptions = packet.n_preemptions
    request.prefix_hit_tokens = packet.prefix_hit_tokens
    return request
