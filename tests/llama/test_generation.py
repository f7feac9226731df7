"""Tests for repro.llama.generation."""

from __future__ import annotations

import pytest

from repro.llama.generation import GenerationTiming, generate
from repro.llama.sampler import Sampler
from repro.llama.tokenizer import EOS_ID


class TestGenerate:
    def test_generates_requested_count(self, micro_model):
        result = generate(micro_model, [1, 2, 3], max_new_tokens=8)
        assert result.n_prompt == 3
        assert result.n_generated == 8
        assert result.total_tokens == 11

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
        assert result.total_tokens <= micro_config.max_seq_len

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

    def test_on_token_callback(self, micro_model):
        seen = []
        result = generate(micro_model, [1, 2], max_new_tokens=4,
                          on_token=seen.append)
        assert seen == result.generated_tokens

    def test_timing_with_injected_clock(self, micro_model):
        ticks = iter(range(1000))
        result = generate(micro_model, [1, 2], max_new_tokens=4,
                          clock=lambda: float(next(ticks)))
        assert result.timing.prefill_seconds >= 0
        assert result.timing.decode_seconds > 0
        assert result.timing.total_seconds == (
            result.timing.prefill_seconds + result.timing.decode_seconds
        )

    def test_decode_tokens_per_second(self):
        from repro.llama.generation import GenerationResult
        result = GenerationResult(
            prompt_tokens=[1], generated_tokens=[2, 3, 4, 5],
            timing=GenerationTiming(prefill_seconds=0.5, decode_seconds=2.0),
        )
        assert result.decode_tokens_per_second() == pytest.approx(2.0)

    def test_zero_decode_time_gives_zero_throughput(self):
        from repro.llama.generation import GenerationResult
        result = GenerationResult(prompt_tokens=[1], generated_tokens=[])
        assert result.decode_tokens_per_second() == 0.0
