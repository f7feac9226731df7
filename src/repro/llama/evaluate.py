"""Model-quality evaluation: cross-entropy, perplexity, agreement.

The paper's accelerator changes *how* the model is executed (int8 weight
streaming, fused operators), not *what* it computes — so the reproduction
needs a way to quantify any functional drift.  This module provides:

* :func:`cross_entropy` / :func:`perplexity` — teacher-forced next-token
  loss of a model over a text corpus (the metric TinyStories models are
  trained against);
* :func:`divergence_report` / :func:`token_agreement` — the one
  teacher-forced comparison of two models: the fraction of positions
  where both pick the same greedy next token, and the logit drift
  between them (quantised datapath vs float32 reference, simulated
  accelerator vs NumPy engine).

"Model" here is what :mod:`repro.llama.generation` means by it:
``forward(token, pos, cache)`` and ``new_cache()``, so every function
below also takes a :class:`~repro.accel.accelerator.SpeedLLMAccelerator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import LlamaModel, softmax

__all__ = [
    "DivergenceReport",
    "cross_entropy",
    "divergence_report",
    "perplexity",
    "token_agreement",
]


def _sequence_nll(model: LlamaModel, tokens: Sequence[int]) -> tuple[float, int]:
    """Sum of negative log-likelihoods of ``tokens[1:]`` given their prefix."""
    if len(tokens) < 2:
        return 0.0, 0
    cache = model.new_cache()
    total = 0.0
    count = 0
    limit = min(len(tokens), cache.capacity)
    for pos in range(limit - 1):
        logits = model.forward(tokens[pos], pos, cache)
        probs = softmax(logits)
        target = tokens[pos + 1]
        total += -float(np.log(max(probs[target], 1e-12)))
        count += 1
    return total, count


def _mean_nll(
    model: LlamaModel, token_sequences: Iterable[Sequence[int]]
) -> tuple[float, int]:
    """(mean per-token NLL in nats, scored tokens) over the sequences."""
    total = 0.0
    count = 0
    for tokens in token_sequences:
        nll, n = _sequence_nll(model, list(tokens))
        total += nll
        count += n
    if count == 0:
        raise ValueError("no scorable tokens in the evaluation set")
    return total / count, count


def cross_entropy(model: LlamaModel, token_sequences: Iterable[Sequence[int]]) -> float:
    """Mean per-token negative log-likelihood over the sequences (nats)."""
    return _mean_nll(model, token_sequences)[0]


def perplexity(model: LlamaModel, token_sequences: Iterable[Sequence[int]]) -> float:
    """exp(cross entropy)."""
    return float(np.exp(cross_entropy(model, token_sequences)))


def token_agreement(
    model_a: LlamaModel,
    model_b: LlamaModel,
    token_sequences: Iterable[Sequence[int]],
) -> float:
    """Fraction of positions where both models pick the same greedy token.

    Used to quantify the functional impact of the accelerator's weight
    quantisation: 1.0 means the int8 datapath decodes identically to the
    float32 reference under teacher forcing.
    """
    return divergence_report(model_a, model_b, token_sequences).token_agreement


@dataclass(frozen=True)
class DivergenceReport:
    """Teacher-forced drift between two models over a shared corpus."""

    n_positions: int
    #: Positions whose greedy next token matches.
    n_agreements: int
    #: Largest absolute logit difference seen at any position.
    max_logit_drift: float
    #: Mean absolute logit difference over all positions and vocab rows.
    mean_logit_drift: float

    @property
    def token_agreement(self) -> float:
        """Fraction of positions whose greedy next token matches."""
        return self.n_agreements / self.n_positions

    def as_dict(self) -> dict:
        return {
            "n_positions": self.n_positions,
            "token_agreement": self.token_agreement,
            "max_logit_drift": self.max_logit_drift,
            "mean_logit_drift": self.mean_logit_drift,
        }


def divergence_report(
    model_a: LlamaModel,
    model_b: LlamaModel,
    token_sequences: Iterable[Sequence[int]],
) -> DivergenceReport:
    """Greedy agreement *and* logit drift in one teacher-forced pass.

    Both models consume the same ground-truth token at every position, so
    a single early disagreement cannot cascade the way it does in free
    decoding — this is the honest per-position accuracy metric quantised
    datapaths are gated on.
    """
    agree = 0
    total = 0
    max_drift = 0.0
    drift_sum = 0.0
    for tokens in token_sequences:
        tokens = list(tokens)
        if len(tokens) < 2:
            continue
        cache_a = model_a.new_cache()
        cache_b = model_b.new_cache()
        limit = min(len(tokens), cache_a.capacity, cache_b.capacity)
        for pos in range(limit - 1):
            la = model_a.forward(tokens[pos], pos, cache_a)
            lb = model_b.forward(tokens[pos], pos, cache_b)
            agree += int(np.argmax(la) == np.argmax(lb))
            total += 1
            diff = np.abs(np.asarray(la) - np.asarray(lb))
            max_drift = max(max_drift, float(diff.max()))
            drift_sum += float(diff.mean())
    if total == 0:
        raise ValueError("no comparable positions in the evaluation set")
    return DivergenceReport(
        n_positions=total,
        n_agreements=agree,
        max_logit_drift=max_drift,
        mean_logit_drift=drift_sum / total,
    )
