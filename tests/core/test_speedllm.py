"""Tests for the high-level SpeedLLM public API."""

from __future__ import annotations

import pytest

from repro.core.speedllm import SpeedLLM, SpeedLLMOutput
from repro.llama.checkpoint import load_checkpoint, save_checkpoint
from repro.llama.generation import generate
from repro.llama.model import LlamaModel
from repro.llama.tokenizer import Tokenizer


@pytest.fixture(scope="module")
def llm(small_checkpoint, tiny_tokenizer):
    return SpeedLLM(
        model="test-small",
        variant="full",
        checkpoint=small_checkpoint,
        tokenizer=tiny_tokenizer,
        position_stride=4,
    )


class TestConstruction:
    def test_builds_synthetic_stack(self):
        llm = SpeedLLM(model="test-small", variant="full", seed=1,
                       tokenizer_corpus_docs=40, position_stride=4)
        assert llm.tokenizer.vocab_size <= llm.model_config.vocab_size
        assert llm.checkpoint.config == llm.model_config

    def test_model_vocab_too_small_for_byte_tokenizer(self):
        # test-micro's 64-entry vocabulary cannot host a byte-level
        # tokenizer (needs >= 259 ids); the constructor reports it clearly.
        with pytest.raises(ValueError, match="vocab"):
            SpeedLLM(model="test-micro", tokenizer_corpus_docs=20)

    def test_tokenizer_vocab_must_fit_model(self, small_checkpoint, byte_tokenizer):
        big = SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                       tokenizer=byte_tokenizer)
        assert big.tokenizer.vocab_size <= big.model_config.vocab_size

    def test_oversized_tokenizer_rejected(self, micro_checkpoint, byte_tokenizer):
        with pytest.raises(ValueError, match="exceeds"):
            SpeedLLM(model="test-micro", checkpoint=micro_checkpoint,
                     tokenizer=byte_tokenizer)

    def test_invalid_energy_accounting(self, small_checkpoint, tiny_tokenizer):
        with pytest.raises(ValueError):
            SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                     tokenizer=tiny_tokenizer, energy_accounting="magic")

    @pytest.mark.parametrize("stride", [0, -1])
    def test_non_positive_stride_rejected(self, small_checkpoint, tiny_tokenizer,
                                          stride):
        with pytest.raises(ValueError, match="position_stride must be positive"):
            SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                     tokenizer=tiny_tokenizer, position_stride=stride)

    def test_describe(self, llm):
        desc = llm.describe()
        assert desc["model"] == "test-small"
        assert desc["platform"].startswith("Xilinx Alveo U280")
        assert desc["pipeline"] is True

    def test_from_checkpoint_file(self, small_checkpoint, tiny_tokenizer, tmp_path):
        ckpt_path = save_checkpoint(small_checkpoint, tmp_path / "model.bin")
        tok_path = tiny_tokenizer.save(tmp_path / "tokenizer.bin")
        checkpoint = load_checkpoint(ckpt_path)
        llm = SpeedLLM(model=checkpoint.config, checkpoint=checkpoint,
                       tokenizer=Tokenizer.load(tok_path), position_stride=4)
        assert llm.model_config.dim == small_checkpoint.config.dim
        out = llm.generate("Once upon a time", max_new_tokens=4)
        assert isinstance(out, SpeedLLMOutput)


class TestGeneration:
    def test_generate_output_fields(self, llm):
        out = llm.generate("Lily went to the park", max_new_tokens=8)
        assert isinstance(out.text, str)
        assert out.prompt == "Lily went to the park"
        assert 0 < len(out.generated_tokens) <= 8
        assert out.latency_ms > 0
        assert out.decode_tokens_per_second > 0
        assert out.tokens_per_joule > 0

    def test_greedy_matches_reference_engine(self, llm):
        prompt = "Tom and Mia played in the garden"
        accel = llm.generate(prompt, max_new_tokens=10)
        ref = generate(LlamaModel(llm.accelerator.functional_checkpoint()),
                       llm.encode(prompt), max_new_tokens=10)
        assert accel.generated_tokens == ref.generated_tokens
        assert accel.text == llm.tokenizer.decode(ref.generated_tokens)

    def test_stochastic_generation_seeded(self, llm):
        a = llm.generate("Once", max_new_tokens=6, temperature=0.8, seed=4).text
        b = llm.generate("Once", max_new_tokens=6, temperature=0.8, seed=4).text
        assert a == b

    def test_encode_has_bos(self, llm):
        ids = llm.encode("hello")
        assert ids[0] == 1


class TestAnalysis:
    def test_resource_report_fits(self, llm):
        report = llm.resource_report()
        assert all(report.fraction(name) < 1.0 for name in report.total.as_dict())

    def test_variant_changes_latency(self, small_checkpoint, tiny_tokenizer):
        fast = SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                        tokenizer=tiny_tokenizer, variant="full", position_stride=4)
        slow = SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                        tokenizer=tiny_tokenizer, variant="unoptimized",
                        position_stride=4)
        m_fast = fast.accelerator.simulate_generation(
            n_prompt=4, n_generated=8, position_stride=4)
        m_slow = slow.accelerator.simulate_generation(
            n_prompt=4, n_generated=8, position_stride=4)
        assert m_slow.total_cycles > m_fast.total_cycles
