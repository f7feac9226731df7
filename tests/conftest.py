"""Shared fixtures for the test suite.

All fixtures use the tiny model presets so the full suite stays fast; the
benchmarks (not the tests) exercise the stories15M configuration.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.llama import (
    LlamaModel,
    Tokenizer,
    preset,
    synthesize_weights,
    train_bpe,
)
from repro.workloads import generate_corpus

# `pytest --hypothesis-profile=thorough`: the differential tests that
# take their example budget from the profile (tests/accel/
# test_step_values.py) run 400 fixed examples instead of the default 100.
settings.register_profile("thorough", max_examples=400, derandomize=True,
                          deadline=None)

#: The cross-config serving matrix every token-identity test runs over:
#: reservation vs. paged KV vs. tensor-parallel execution, each with and
#: without chunked prefill.  Entries are EngineConfig overrides — the
#: ``engine_matrix_config`` fixture composes them with the shared test
#: defaults, and identity tests assert that *none* of these dimensions
#: changes a single generated token.
ENGINE_MATRIX = [
    pytest.param({}, id="local"),
    pytest.param({"chunked_prefill": True, "prefill_chunk_tokens": 4,
                  "policy": "priority"}, id="local-chunked"),
    pytest.param({"paged": True, "block_size": 8}, id="paged"),
    pytest.param({"paged": True, "block_size": 8, "chunked_prefill": True,
                  "prefill_chunk_tokens": 4, "policy": "priority"},
                 id="paged-chunked"),
    pytest.param({"tensor_parallel": 2}, id="tp2"),
    pytest.param({"tensor_parallel": 2, "chunked_prefill": True,
                  "prefill_chunk_tokens": 4}, id="tp2-chunked"),
]


@pytest.fixture(scope="session")
def micro_config():
    """Smallest model configuration (dim=16, 2 layers)."""
    return preset("test-micro")


@pytest.fixture(scope="session")
def small_config():
    """Small GQA configuration (dim=64, 3 layers, 4 heads / 2 kv heads)."""
    return preset("test-small")


@pytest.fixture(scope="session")
def micro_checkpoint(micro_config):
    return synthesize_weights(micro_config, seed=11)


@pytest.fixture(scope="session")
def small_checkpoint(small_config):
    return synthesize_weights(small_config, seed=7)


@pytest.fixture(scope="session")
def micro_model(micro_checkpoint):
    return LlamaModel(micro_checkpoint)


@pytest.fixture(scope="session")
def small_model(small_checkpoint):
    return LlamaModel(small_checkpoint)


@pytest.fixture(scope="session")
def story_corpus():
    return generate_corpus(120, seed=5)


@pytest.fixture(scope="session")
def tiny_tokenizer(story_corpus):
    """BPE tokenizer small enough for the test-small model vocabulary."""
    return train_bpe(story_corpus, vocab_size=512)


@pytest.fixture(scope="session")
def byte_tokenizer():
    return Tokenizer.byte_level()


@pytest.fixture(params=ENGINE_MATRIX)
def engine_matrix_config(request):
    """One point of the serving-config matrix, as an EngineConfig."""
    from repro.api import EngineConfig
    return EngineConfig(model="test-small", max_batch_tokens=16,
                        **request.param)


@pytest.fixture(scope="session")
def serve_streams():
    """Serve prompts through one engine config; return token streams.

    The helper the cross-config identity tests share: prompts go in
    through the completions layer (the outermost frontend surface) and
    the per-request token streams come back in submission order, so a
    test can compare them against sequential generation or against
    another config's streams with a plain ``==``.
    """
    from repro.api import CompletionRequest, CompletionService

    def _serve(llm, config, prompts, max_tokens=8, seed_base=None,
               priorities=None, **sampling):
        engine = config.build_engine(llm=llm)
        service = CompletionService(engine)
        pending = [
            service.submit(CompletionRequest(
                prompt=prompt,
                max_tokens=max_tokens,
                seed=0 if seed_base is None else seed_base + i,
                priority=0 if priorities is None else priorities[i],
                **sampling,
            ))
            for i, prompt in enumerate(prompts)
        ]
        engine.run()
        return [list(p.response().choices[0].token_ids) for p in pending]

    return _serve


@pytest.fixture(scope="session")
def sequential_streams():
    """Reference token streams from one-shot ``SpeedLLM.generate``."""

    def _generate(llm, prompts, max_tokens=8, seed_base=None, **sampling):
        return [
            llm.generate(prompt, max_new_tokens=max_tokens,
                         seed=0 if seed_base is None else seed_base + i,
                         **sampling).generated_tokens
            for i, prompt in enumerate(prompts)
        ]

    return _generate
