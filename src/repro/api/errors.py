"""Typed errors of the public frontend API.

Frontends need to map failures to protocol-level responses (an HTTP 400
for an over-long prompt, a 422 for a bad sampling parameter), so the API
raises typed exceptions instead of bare ``ValueError``.  Every error
still *subclasses* ``ValueError`` so pre-existing callers that caught
the untyped exceptions keep working unchanged.
"""

from __future__ import annotations

__all__ = ["FrontendError", "PromptTooLongError", "InvalidSamplingError",
           "KVCapacityError"]


class FrontendError(ValueError):
    """Base class of every error raised by the ``repro.api`` frontend."""


class PromptTooLongError(FrontendError):
    """The prompt (plus at least one new token) does not fit the context.

    Raised at *admission* time — by :meth:`repro.serve.ServingEngine.submit`
    — so a request that could never produce a token is rejected before it
    occupies queue or KV capacity, instead of surfacing mid-decode.
    """

    def __init__(self, n_prompt: int, max_seq_len: int) -> None:
        self.n_prompt = n_prompt
        self.max_seq_len = max_seq_len
        super().__init__(
            f"prompt of {n_prompt} tokens does not fit the "
            f"{max_seq_len}-position context window (at least one position "
            "must remain for decoding)"
        )


class KVCapacityError(FrontendError):
    """The request's worst-case KV footprint exceeds the whole KV budget.

    Raised at submission — by :meth:`repro.serve.Scheduler.submit` and
    :meth:`repro.cluster.ClusterEngine.submit` — with the KV manager's
    reason, so a request that could never be admitted is refused before
    it queues instead of stalling the drain loop.
    """

    def __init__(self, request_id: str, reason: str) -> None:
        self.request_id = request_id
        super().__init__(
            f"request {request_id!r} {reason}; it can never be admitted")


class InvalidSamplingError(FrontendError):
    """A :class:`~repro.api.SamplingParams` field failed validation."""
