"""Tests for repro.llama.generation."""

from __future__ import annotations

import pytest

from repro.llama.generation import generate
from repro.llama.sampler import Sampler
from repro.llama.tokenizer import EOS_ID


class TestGenerate:
    def test_generates_requested_count(self, micro_model):
        result = generate(micro_model, [1, 2, 3], max_new_tokens=8)
        assert result.n_prompt == 3
        assert result.n_generated == 8

    def test_deterministic_greedy(self, micro_model):
        a = generate(micro_model, [1, 2], max_new_tokens=6)
        b = generate(micro_model, [1, 2], max_new_tokens=6)
        assert a.generated_tokens == b.generated_tokens

    def test_stochastic_sampling_reproducible(self, micro_model):
        a = generate(micro_model, [1, 2], max_new_tokens=6,
                     sampler=Sampler(temperature=0.9, seed=5))
        b = generate(micro_model, [1, 2], max_new_tokens=6,
                     sampler=Sampler(temperature=0.9, seed=5))
        assert a.generated_tokens == b.generated_tokens

    def test_respects_context_window(self, micro_model, micro_config):
        prompt = [1] * (micro_config.max_seq_len - 4)
        result = generate(micro_model, prompt, max_new_tokens=100)
        assert result.n_prompt + result.n_generated <= micro_config.max_seq_len

    def test_prompt_too_long_rejected(self, micro_model, micro_config):
        with pytest.raises(ValueError, match="context window"):
            generate(micro_model, [1] * micro_config.max_seq_len, max_new_tokens=1)

    def test_empty_prompt_rejected(self, micro_model):
        with pytest.raises(ValueError):
            generate(micro_model, [], max_new_tokens=4)

    def test_stops_at_eos(self, micro_model, monkeypatch):
        # Force the sampler to emit EOS on the second decode step.
        calls = {"n": 0}

        class ForcedSampler(Sampler):
            def sample(self, logits):
                calls["n"] += 1
                return EOS_ID if calls["n"] == 2 else 5

        result = generate(micro_model, [1, 2], max_new_tokens=10,
                          sampler=ForcedSampler())
        assert result.generated_tokens[-1] == EOS_ID
        assert result.n_generated == 2

    def test_eos_not_stopping_when_disabled(self, micro_model):
        class AlwaysEos(Sampler):
            def sample(self, logits):
                return EOS_ID

        result = generate(micro_model, [1], max_new_tokens=5,
                          sampler=AlwaysEos(), stop_at_eos=False)
        assert result.n_generated == 5
