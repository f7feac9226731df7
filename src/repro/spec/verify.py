"""Verify-then-commit acceptance for speculative decode runs.

One verify step feeds a request's pending token plus ``K`` draft tokens
through the model in a single batched pass, producing ``K + 1`` logit
vectors: ``logits[i]`` is the target distribution of the token at the
position *after* the ``i``-th fed token.  :func:`verify_run` turns those
logits into the tokens the engine commits:

* **Greedy (temperature 0)** — exact verification.  Position by
  position the target argmax is committed; a draft token is *accepted*
  when it equals that argmax (so the next position's logits, computed
  with the draft token in context, remain valid), and the first mismatch
  ends the run.  When every draft token is accepted the final logits
  yield one *bonus* token, committing ``K + 1`` tokens from one pass.
  The committed stream is token-identical to plain greedy decoding by
  construction — speculation changes how many passes it takes, never
  what is produced.
* **Stochastic (temperature > 0)** — seeded rejection sampling against
  the drafter's (deterministic) proposal: draft token ``d`` is accepted
  with probability ``p(d)`` under the temperature/top-p-adjusted target
  distribution; on rejection the replacement token is drawn from the
  residual distribution (``p`` with ``d`` removed, renormalised), which
  keeps every committed token exactly target-distributed.  All draws
  come from the request's private seeded sampler, so runs reproduce.

The engine commits ``outcome.committed`` in order (stopping early on
EOS / stop sequences / budget) and rolls the KV cache back past the last
committed position — see ``ServingEngine._commit_decode``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..llama.sampler import Sampler, greedy

__all__ = ["SpecOutcome", "verify_run"]


@dataclass
class SpecOutcome:
    """What one verify pass decided."""

    #: Tokens to commit, in order (always at least one).
    committed: List[int]
    #: The logits each committed token was drawn from (aligned with
    #: ``committed``); the engine uses them for per-token logprobs.
    logits: List[np.ndarray]
    #: Draft tokens that were proposed this run.
    n_draft: int
    #: Leading draft tokens that were accepted (``<= n_draft``).
    n_accepted: int


def verify_run(
    draft_tokens: Sequence[int],
    outputs: Sequence[np.ndarray],
    sampler: Sampler,
) -> SpecOutcome:
    """Score a draft run against the target logits of one verify pass.

    ``outputs`` must hold ``len(draft_tokens) + 1`` logit vectors — one
    per fed position (the pending token first, then each draft token).
    With no draft tokens this degenerates into plain single-token
    decoding: one token sampled from ``outputs[0]``.
    """
    draft = [int(t) for t in draft_tokens]
    if len(outputs) != len(draft) + 1:
        raise ValueError(
            f"verify pass produced {len(outputs)} logit vectors for "
            f"{len(draft)} draft tokens; expected {len(draft) + 1}"
        )
    if sampler.temperature == 0.0:
        return _verify_greedy(draft, outputs)
    return _verify_rejection(draft, outputs, sampler)


def _verify_greedy(
    draft: List[int], outputs: Sequence[np.ndarray]
) -> SpecOutcome:
    committed: List[int] = []
    logits_used: List[np.ndarray] = []
    n_accepted = 0
    for i, proposed in enumerate(draft):
        token = greedy(outputs[i])
        committed.append(token)
        logits_used.append(outputs[i])
        if token != proposed:
            return SpecOutcome(committed, logits_used, len(draft), n_accepted)
        n_accepted += 1
    committed.append(greedy(outputs[len(draft)]))
    logits_used.append(outputs[len(draft)])
    return SpecOutcome(committed, logits_used, len(draft), n_accepted)


def _verify_rejection(
    draft: List[int], outputs: Sequence[np.ndarray], sampler: Sampler
) -> SpecOutcome:
    committed: List[int] = []
    logits_used: List[np.ndarray] = []
    n_accepted = 0
    rng = sampler.rng
    for i, proposed in enumerate(draft):
        probs = sampler.probs(outputs[i])
        accept = (
            0 <= proposed < len(probs)
            and rng.random() < probs[proposed]
        )
        if accept:
            committed.append(proposed)
            logits_used.append(outputs[i])
            n_accepted += 1
            continue
        # Residual distribution: the drafter's proposal is a point mass
        # at ``proposed``, so (p - q)+ is p with that entry removed.
        residual = probs.copy()
        if 0 <= proposed < len(residual):
            residual[proposed] = 0.0
        total = residual.sum()
        if total > 0.0:
            token = int(rng.choice(len(residual), p=residual / total))
        else:  # the target distribution WAS the proposal; cannot reject
            token = int(np.argmax(probs))
        committed.append(token)
        logits_used.append(outputs[i])
        return SpecOutcome(committed, logits_used, len(draft), n_accepted)
    committed.append(sampler.sample(outputs[len(draft)]))
    logits_used.append(outputs[len(draft)])
    return SpecOutcome(committed, logits_used, len(draft), n_accepted)
