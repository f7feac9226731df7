"""Typed sampling parameters of the frontend API.

:class:`SamplingParams` consolidates every per-request generation knob
that used to travel as loose keyword arguments (``max_new_tokens``,
``temperature``, ``top_p``, ``seed``, ``stop_at_eos``) into one frozen,
validated dataclass, and adds the production-frontend knobs the loose
form never had: **stop sequences**, ``ignore_eos`` and optional
per-token ``logprobs``.  Validation happens exactly once, in
``__post_init__`` — the scheduler, engine and completions layer all
trust a constructed instance.

The dataclass is also the single place a per-request
:class:`~repro.llama.sampler.Sampler` is derived from
(:meth:`build_sampler`), so every execution path — first admission,
preemption replay, the completions layer — samples from an
identically-seeded generator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..llama.sampler import Sampler
from .errors import InvalidSamplingError

__all__ = ["SamplingParams", "MAX_LOGPROBS"]

#: Upper bound on per-token top-logprobs a request may ask for (mirrors
#: the OpenAI completions API limit).
MAX_LOGPROBS = 32


@dataclass(frozen=True)
class SamplingParams:
    """Validated, immutable sampling configuration of one request.

    Attributes
    ----------
    max_tokens:
        Decode budget — at most this many tokens are generated.
    temperature:
        0.0 selects greedy decoding; otherwise logits are divided by the
        temperature before sampling.
    top_p:
        Nucleus threshold; 1.0 disables nucleus filtering.
    seed:
        Seed of the request's private sampler (stochastic modes only).
    stop:
        Stop sequences.  Generation finishes as soon as the decoded text
        contains any of them; the visible output text is truncated just
        before the earliest match.  A single string is accepted and
        normalised to a one-element tuple.
    stop_at_eos:
        Whether sampling the EOS token retires the request.
    ignore_eos:
        Production-frontend override: when True the EOS token never
        retires the request even if ``stop_at_eos`` is True (useful for
        fixed-length benchmarking).
    logprobs:
        When set, each generated token records the log-probabilities of
        the ``logprobs`` most likely tokens (plus the sampled token).
    priority:
        SLO tier of the request: smaller numbers are more urgent (0 is
        the interactive default).  Only the ``priority`` and
        ``fairness`` scheduling policies act on it — they admit urgent
        tiers first and draw preemption victims from the least urgent
        tier; the default ``fifo`` policy ignores it.
    """

    max_tokens: int = 64
    temperature: float = 0.0
    top_p: float = 1.0
    seed: int = 0
    stop: Union[str, Sequence[str]] = ()
    stop_at_eos: bool = True
    ignore_eos: bool = False
    logprobs: Optional[int] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.stop, str):
            stop = (self.stop,)
        else:
            try:
                stop = tuple(self.stop)
            except TypeError:
                raise InvalidSamplingError(
                    "stop must be a string or a sequence of strings, got "
                    f"{self.stop!r}") from None
        object.__setattr__(self, "stop", stop)
        if self.max_tokens <= 0:
            raise InvalidSamplingError(
                f"max_tokens must be positive, got {self.max_tokens}")
        if self.temperature < 0:
            raise InvalidSamplingError(
                f"temperature must be >= 0, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise InvalidSamplingError(
                f"top_p must be in (0, 1], got {self.top_p}")
        for sequence in stop:
            if not isinstance(sequence, str) or not sequence:
                raise InvalidSamplingError(
                    f"stop sequences must be non-empty strings, got "
                    f"{sequence!r}")
        if self.logprobs is not None:
            if not 0 < self.logprobs <= MAX_LOGPROBS:
                raise InvalidSamplingError(
                    f"logprobs must be in [1, {MAX_LOGPROBS}], got "
                    f"{self.logprobs}")
        if not isinstance(self.priority, int) or isinstance(self.priority,
                                                            bool):
            raise InvalidSamplingError(
                f"priority must be an integer, got {self.priority!r}")
        if self.priority < 0:
            raise InvalidSamplingError(
                f"priority must be >= 0 (0 is most urgent), got "
                f"{self.priority}")

    # ------------------------------------------------------------------
    @property
    def stops_at_eos(self) -> bool:
        """Effective EOS policy once ``ignore_eos`` is applied."""
        return self.stop_at_eos and not self.ignore_eos

    @property
    def is_greedy(self) -> bool:
        return self.temperature == 0.0

    # ------------------------------------------------------------------
    def build_sampler(self) -> Sampler:
        """Derive the request's seeded :class:`Sampler`.

        This is the *only* place a sampler is constructed from sampling
        parameters, so admission, preemption replay and every frontend
        surface share one seeding convention.
        """
        return Sampler(temperature=self.temperature, top_p=self.top_p,
                       seed=self.seed)

    def capped(self, max_seq_len: int, n_prompt: int) -> "SamplingParams":
        """Clamp ``max_tokens`` to the context room left after the prompt.

        Called at admission so a decode budget that overflows the context
        window is accounted for up front instead of being discovered
        mid-decode.  Raises :class:`PromptTooLongError` upstream (the
        engine checks the room is positive before calling this).
        """
        room = max_seq_len - n_prompt
        if self.max_tokens <= room:
            return self
        return dataclasses.replace(self, max_tokens=room)
