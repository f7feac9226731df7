"""The public frontend API of the serving stack.

Everything a client of the serving system touches lives here:

* :class:`SamplingParams` — validated, frozen per-request sampling
  configuration (temperature, top-p, seed, decode budget, stop
  sequences, EOS policy, optional logprobs);
* :class:`EngineConfig` — one declarative engine description (model
  preset, scheduler/KV knobs, speculative-decoding policy,
  tensor-parallel degree, interconnect, arrival policy) with
  :meth:`~EngineConfig.build_engine` factories that replace hand-wiring
  scheduler + KV pool + backend;
* :class:`SpecConfig` — the speculative draft-and-verify policy
  (``EngineConfig(speculative=SpecConfig(method="ngram"))``);
* :class:`RequestHandle` / :class:`RequestOutput` — the streaming
  surface returned by :meth:`repro.serve.ServingEngine.submit`:
  incremental tokens, detokenized deltas and a finish reason;
* the OpenAI-style completions layer (:class:`CompletionRequest`,
  :class:`CompletionResponse`, chunked :class:`CompletionChunk` events,
  :class:`CompletionService`);
* typed errors (:class:`PromptTooLongError`, ...).

Quick start::

    from repro.api import CompletionRequest, CompletionService, EngineConfig

    engine = EngineConfig(model="stories15M", paged=True).build_engine()
    api = CompletionService(engine)
    for chunk in api.stream(CompletionRequest(
            prompt="Once upon a time", max_tokens=32, stop=("\\n",))):
        print(chunk.text, end="", flush=True)
"""

from .completions import (
    CompletionChoice,
    CompletionChunk,
    CompletionRequest,
    CompletionResponse,
    CompletionService,
    CompletionUsage,
    PendingCompletion,
)
from ..spec.config import SpecConfig
from .config import EngineConfig
from .errors import (FrontendError, InvalidSamplingError, KVCapacityError,
                     PromptTooLongError)
from .outputs import RequestHandle, RequestOutput
from .params import SamplingParams

__all__ = [
    "CompletionChoice",
    "CompletionChunk",
    "CompletionRequest",
    "CompletionResponse",
    "CompletionService",
    "CompletionUsage",
    "PendingCompletion",
    "EngineConfig",
    "FrontendError",
    "InvalidSamplingError",
    "KVCapacityError",
    "PromptTooLongError",
    "RequestHandle",
    "RequestOutput",
    "SamplingParams",
    "SpecConfig",
]
