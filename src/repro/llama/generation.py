"""Prefill + decode generation loop.

This is the host-program equivalent of llama2.c's ``generate`` /
``run`` loop, and the one single-sequence decode loop.  It runs over any
*model* — an object answering ``forward(token, pos, cache)`` (the
logits of one position) and ``new_cache()`` (a cache whose ``capacity``
is the context window):

* :class:`~repro.llama.model.LlamaModel`, the NumPy reference engine, and
* :class:`~repro.accel.accelerator.SpeedLLMAccelerator`, whose
  ``generate`` is this loop plus the simulated timing of the same
  prefill/decode schedule.

The loop keeps no clock.  The paper's latency and throughput (§3.2.1)
are measured on the accelerator's simulated clock, which
:meth:`~repro.accel.accelerator.SpeedLLMAccelerator.simulate_generation`
prices for the same prefill/decode schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .model import LlamaModel
from .sampler import Sampler
from .tokenizer import EOS_ID

__all__ = ["GenerationResult", "generate"]


@dataclass
class GenerationResult:
    """Outcome of one generation run."""

    prompt_tokens: List[int]
    generated_tokens: List[int]

    @property
    def n_prompt(self) -> int:
        return len(self.prompt_tokens)

    @property
    def n_generated(self) -> int:
        return len(self.generated_tokens)


def generate(
    model: LlamaModel,
    prompt_tokens: Sequence[int],
    max_new_tokens: int,
    sampler: Optional[Sampler] = None,
    stop_at_eos: bool = True,
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

    for pos, token in enumerate(prompt_tokens):
        logits = model.forward(token, pos, cache)

    generated: List[int] = []
    pos = len(prompt_tokens)
    budget = min(max_new_tokens, max_len - len(prompt_tokens))
    for _ in range(budget):
        token = sampler.sample(logits)
        generated.append(token)
        if stop_at_eos and token == EOS_ID:
            break
        if pos >= max_len:
            break
        logits = model.forward(token, pos, cache)
        pos += 1
    return GenerationResult(prompt_tokens=prompt_tokens, generated_tokens=generated)
