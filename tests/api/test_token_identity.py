"""The PR's acceptance pin: every frontend surface and every serving
configuration produces identical token streams.

Two axes are pinned:

* **Surfaces** — the same prompts are driven through (a)
  ``SamplingParams`` drained by ``run()`` and read off the finished
  handle, (b) ``SamplingParams`` + the streaming ``RequestHandle``, and
  (c) the OpenAI-style completions layer, for greedy and seeded top-p
  sampling, and all three must emit exactly the same tokens as one
  another and as sequential ``SpeedLLM.generate``.
* **Configurations** — the shared ``engine_matrix_config`` fixture from
  ``tests/conftest.py`` sweeps reservation vs. paged KV vs. TP=2, each
  with chunked prefill on and off; scheduling and memory layout must
  never change a generated token.
* **Compilation** — autotuned tiling re-tiles the very same operator
  graphs, so an autotuned stack must emit token streams identical to the
  fixed tiling across the whole configuration matrix, including
  speculative decoding's verify steps.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CompletionRequest,
    CompletionService,
    EngineConfig,
    SamplingParams,
    SpecConfig,
)
from repro.serve import SchedulerConfig, ServingEngine

PROMPTS = [
    "Once upon a time",
    "Lily and Tom went to the park",
    "The little dog was happy",
    "One day a bird found a shiny stone",
]

CONFIGS = [
    pytest.param({"temperature": 0.0, "top_p": 1.0}, id="greedy"),
    pytest.param({"temperature": 0.8, "top_p": 0.9}, id="top-p"),
]


def _streams_via_run(llm, sampling, max_tokens):
    engine = ServingEngine(llm, SchedulerConfig(max_batch_tokens=16))
    handles = [
        engine.submit(p, SamplingParams(max_tokens=max_tokens, seed=11 + i,
                                        **sampling))
        for i, p in enumerate(PROMPTS)
    ]
    engine.run()
    return [list(h.token_ids) for h in handles]


def _streams_via_params(llm, sampling, max_tokens):
    engine = ServingEngine(llm, SchedulerConfig(max_batch_tokens=16))
    handles = [
        engine.submit(p, SamplingParams(max_tokens=max_tokens, seed=11 + i,
                                        **sampling))
        for i, p in enumerate(PROMPTS)
    ]
    # Consume through the streaming iterator rather than run(), so the
    # incremental surface itself is what's being pinned.
    collected = []
    for handle in handles:
        collected.append([t for out in handle for t in out.new_token_ids])
    return collected


def _streams_via_completions(llm, sampling, max_tokens):
    engine = ServingEngine(llm, SchedulerConfig(max_batch_tokens=16))
    service = CompletionService(engine)
    pending = [
        service.submit(CompletionRequest(prompt=p, max_tokens=max_tokens,
                                         seed=11 + i, **sampling))
        for i, p in enumerate(PROMPTS)
    ]
    engine.run()
    return [list(p.response().choices[0].token_ids) for p in pending]


@pytest.mark.parametrize("sampling", CONFIGS)
def test_all_three_surfaces_emit_identical_streams(llm, sampling):
    max_tokens = 8
    sequential = [
        llm.generate(p, max_new_tokens=max_tokens, seed=11 + i,
                     **sampling).generated_tokens
        for i, p in enumerate(PROMPTS)
    ]
    drained = _streams_via_run(llm, sampling, max_tokens)
    params = _streams_via_params(llm, sampling, max_tokens)
    completions = _streams_via_completions(llm, sampling, max_tokens)
    assert drained == sequential
    assert params == sequential
    assert completions == sequential


@pytest.mark.parametrize("sampling", CONFIGS)
def test_identity_across_engine_matrix(llm, engine_matrix_config,
                                       serve_streams, sequential_streams,
                                       sampling):
    """Every serving config in the matrix reproduces sequential tokens,
    for greedy and seeded stochastic sampling alike."""
    sequential = sequential_streams(llm, PROMPTS, seed_base=11, **sampling)
    served = serve_streams(llm, engine_matrix_config, PROMPTS,
                           seed_base=11, **sampling)
    assert served == sequential


@pytest.fixture(scope="module")
def autotuned_llm(small_checkpoint, tiny_tokenizer):
    """The fixture llm's stack, rebuilt with tile autotuning and shape
    bucketing enabled — same weights, same tokenizer, retimed tiling."""
    from repro.accel.config import AcceleratorConfig
    from repro.core.speedllm import SpeedLLM

    return SpeedLLM(
        model="test-small", checkpoint=small_checkpoint,
        tokenizer=tiny_tokenizer,
        accel_config=AcceleratorConfig.variant("full").replace(
            autotune_tiling=True, ctx_bucket=8),
    )


@pytest.mark.parametrize("sampling", CONFIGS)
def test_autotuned_tiling_identity_across_matrix(llm, autotuned_llm,
                                                 engine_matrix_config,
                                                 serve_streams,
                                                 sequential_streams,
                                                 sampling):
    """Autotuned tiling changes cycle counts, never tokens: an autotuned
    stack served through every matrix config reproduces the fixed-tiling
    sequential streams exactly."""
    fixed = sequential_streams(llm, PROMPTS, seed_base=11, **sampling)
    autotuned = serve_streams(autotuned_llm, engine_matrix_config, PROMPTS,
                              seed_base=11, **sampling)
    assert autotuned == fixed


def test_autotuned_tiling_identity_with_spec_decode(llm, autotuned_llm,
                                                    serve_streams,
                                                    sequential_streams):
    """Speculative verify steps compile multi-token run programs through
    the same cache; autotuning them must not perturb accepted tokens."""
    config = EngineConfig(
        model="test-small", max_batch_tokens=16,
        speculative=SpecConfig(method="ngram", num_draft_tokens=4),
    )
    fixed = sequential_streams(llm, PROMPTS, seed_base=11)
    autotuned = serve_streams(autotuned_llm, config, PROMPTS, seed_base=11)
    assert autotuned == fixed


def test_matrix_identity_with_mixed_priorities(llm, engine_matrix_config,
                                               serve_streams,
                                               sequential_streams):
    """Priorities steer scheduling order, never token content: streams
    stay sequential-identical when requests carry mixed SLO tiers."""
    priorities = [i % 2 for i in range(len(PROMPTS))]
    sequential = sequential_streams(llm, PROMPTS)
    served = serve_streams(llm, engine_matrix_config, PROMPTS,
                           priorities=priorities)
    assert served == sequential
