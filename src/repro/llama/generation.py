"""Prefill + decode generation loop with timing hooks.

This is the host-program equivalent of llama2.c's ``generate`` /
``run`` loop, and the one single-sequence decode loop.  It runs over any
*model* — an object answering ``forward(token, pos, cache)`` (the
logits of one position) and ``new_cache()`` (a cache whose ``capacity``
is the context window):

* :class:`~repro.llama.model.LlamaModel`, the NumPy reference engine, and
* :class:`~repro.accel.accelerator.SpeedLLMAccelerator`, whose
  ``generate`` is this loop plus the simulated timing of the same
  prefill/decode schedule.

Latency in the paper is "total time for complete inference" measured by
the host timing function; throughput is "output tokens / decode-stage
duration" (§3.2.1).  :class:`GenerationTiming` captures exactly those two
stage durations so the metrics layer can reproduce both definitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from .model import LlamaModel
from .sampler import Sampler
from .tokenizer import EOS_ID

__all__ = ["GenerationTiming", "GenerationResult", "generate"]


@dataclass
class GenerationTiming:
    """Wall-clock (or simulated-clock) stage durations in seconds."""

    prefill_seconds: float = 0.0
    decode_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end inference latency."""
        return self.prefill_seconds + self.decode_seconds


@dataclass
class GenerationResult:
    """Outcome of one generation run."""

    prompt_tokens: List[int]
    generated_tokens: List[int]
    timing: GenerationTiming = field(default_factory=GenerationTiming)

    @property
    def n_prompt(self) -> int:
        return len(self.prompt_tokens)

    @property
    def n_generated(self) -> int:
        return len(self.generated_tokens)

    @property
    def total_tokens(self) -> int:
        return self.n_prompt + self.n_generated

    def decode_tokens_per_second(self) -> float:
        """Throughput as defined by the paper (decode stage only)."""
        if self.timing.decode_seconds <= 0:
            return 0.0
        return self.n_generated / self.timing.decode_seconds


def generate(
    model: LlamaModel,
    prompt_tokens: Sequence[int],
    max_new_tokens: int,
    sampler: Optional[Sampler] = None,
    stop_at_eos: bool = True,
    clock: Callable[[], float] = time.perf_counter,
    on_token: Optional[Callable[[int], None]] = None,
) -> GenerationResult:
    """Run prefill over ``prompt_tokens`` then decode ``max_new_tokens``.

    Parameters
    ----------
    model:
        The reference engine, or any other model (see the module
        docstring) — the simulated accelerator runs this same loop.
    prompt_tokens:
        Prompt token ids (must be non-empty; prepend BOS yourself).
    max_new_tokens:
        Upper bound on generated tokens; generation also stops at EOS or
        at the context limit (the capacity of the model's cache).
    sampler:
        Sampling policy; greedy when omitted.
    stop_at_eos:
        Whether an EOS token terminates decoding early.
    clock:
        Time source (injectable for deterministic tests).
    on_token:
        Optional callback invoked with each newly generated token id.
    """
    if not prompt_tokens:
        raise ValueError("prompt_tokens must not be empty")
    prompt_tokens = list(int(t) for t in prompt_tokens)
    sampler = sampler or Sampler()
    cache = model.new_cache()
    max_len = cache.capacity
    if len(prompt_tokens) >= max_len:
        raise ValueError(
            f"prompt of {len(prompt_tokens)} tokens does not fit in the "
            f"context window of {max_len}"
        )

    t0 = clock()
    for pos, token in enumerate(prompt_tokens):
        logits = model.forward(token, pos, cache)
    t1 = clock()

    generated: List[int] = []
    pos = len(prompt_tokens)
    budget = min(max_new_tokens, max_len - len(prompt_tokens))
    for _ in range(budget):
        token = sampler.sample(logits)
        generated.append(token)
        if on_token is not None:
            on_token(token)
        if stop_at_eos and token == EOS_ID:
            break
        if pos >= max_len:
            break
        logits = model.forward(token, pos, cache)
        pos += 1
    t2 = clock()

    timing = GenerationTiming(prefill_seconds=t1 - t0, decode_seconds=t2 - t1)
    return GenerationResult(
        prompt_tokens=prompt_tokens,
        generated_tokens=generated,
        timing=timing,
    )
