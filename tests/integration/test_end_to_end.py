"""End-to-end integration: text in, text out, through the whole stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.config import AcceleratorConfig
from repro.core.speedllm import SpeedLLM
from repro.llama.checkpoint import load_checkpoint, save_checkpoint
from repro.llama.generation import generate
from repro.llama.model import LlamaModel
from repro.llama.sampler import Sampler
from repro.llama.tokenizer import Tokenizer
from repro.quant import QuantConfig


class TestFullStackGeneration:
    @pytest.fixture(scope="class")
    def llm(self, small_checkpoint, tiny_tokenizer):
        return SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                        tokenizer=tiny_tokenizer, variant="full",
                        position_stride=4)

    def test_accelerator_and_reference_agree_token_for_token(self, llm):
        prompts = [
            "Once upon a time, Lily went to the park",
            "Tom saw a red ball",
            "One day, the little dog",
        ]
        reference = LlamaModel(llm.accelerator.functional_checkpoint())
        for prompt in prompts:
            accel = llm.generate(prompt, max_new_tokens=12)
            ref = generate(reference, llm.encode(prompt), max_new_tokens=12)
            assert accel.generated_tokens == ref.generated_tokens

    def test_variants_produce_identical_text_different_latency(
        self, small_checkpoint, tiny_tokenizer
    ):
        """The optimizations are performance-only: tokens must not change."""
        outputs = {}
        for variant in ("full", "no-fusion", "unoptimized"):
            llm = SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                           tokenizer=tiny_tokenizer, variant=variant,
                           position_stride=4)
            outputs[variant] = llm.generate("Lily found a shiny stone",
                                            max_new_tokens=10)
        texts = {v: o.text for v, o in outputs.items()}
        assert len(set(texts.values())) == 1
        assert (outputs["unoptimized"].metrics.total_cycles
                > outputs["full"].metrics.total_cycles)

    #: ``accelerator.generate`` of "Once upon a time" (12 tokens, EOS
    #: ignored, stride 4) under commit 60c96f5's accelerator-private
    #: decode loop: sampler arguments -> generated tokens.
    PINNED_TOKENS = {
        "greedy": ({}, [477, 154, 424, 424, 424, 424, 424, 424, 310, 51,
                        510, 271]),
        "sampled": ({"temperature": 0.8, "seed": 5},
                    [415, 416, 264, 148, 27, 197, 208, 21, 23, 511, 332,
                     121]),
    }

    @pytest.mark.parametrize("mode", ["greedy", "sampled"])
    def test_one_decode_loop_behind_every_surface(self, llm, mode):
        """The accelerator is a model: its ``generate`` is the llama decode
        loop run over it, and the serving engine streams the same tokens."""
        from repro.api import SamplingParams
        from repro.serve import SchedulerConfig, ServingEngine

        sampling, pinned = self.PINNED_TOKENS[mode]
        prompt = llm.encode("Once upon a time")
        assert prompt == [1, 82, 113, 102, 104, 359, 261, 361]
        method = llm.accelerator.generate(
            prompt, 12, sampler=Sampler(**sampling), stop_at_eos=False,
            position_stride=4)
        assert method.generated_tokens == pinned
        assert method.metrics.total_cycles == 41399
        loop = generate(llm.accelerator, prompt, 12,
                        sampler=Sampler(**sampling), stop_at_eos=False)
        assert loop.generated_tokens == pinned
        engine = ServingEngine(llm, SchedulerConfig(max_batch_tokens=16))
        handle = engine.submit("Once upon a time", SamplingParams(
            max_tokens=12, ignore_eos=True, **sampling))
        engine.run()
        assert list(handle.token_ids) == pinned

    def test_energy_and_latency_reported_consistently(self, llm):
        out = llm.generate("Once upon a time", max_new_tokens=16)
        m = out.metrics
        assert m.total_seconds == pytest.approx(
            (m.prefill_cycles + m.decode_cycles) / llm.platform.clock_hz
        )
        assert m.tokens_per_joule == pytest.approx(
            m.n_generated / m.energy.total_j, rel=1e-6
        )


class TestArtifactRoundtrip:
    def test_checkpoint_file_to_accelerated_generation(
        self, small_checkpoint, tiny_tokenizer, tmp_path
    ):
        """Mimics the llama2.c workflow: export .bin files, reload, run."""
        ckpt_path = save_checkpoint(small_checkpoint, tmp_path / "stories.bin")
        tok_path = tiny_tokenizer.save(tmp_path / "tokenizer.bin")

        reloaded = load_checkpoint(ckpt_path)
        reference = LlamaModel(reloaded)
        # Store the weights at full precision so the accelerator is
        # bit-comparable with a float32 CPU run of the exported checkpoint.
        llm = SpeedLLM(
            model=reloaded.config, checkpoint=reloaded,
            tokenizer=Tokenizer.load(tok_path), position_stride=4,
            accel_config=AcceleratorConfig(quant=QuantConfig.fp32()))

        prompt_ids = llm.encode("Sara hid a magic key")
        ref = generate(reference, prompt_ids, max_new_tokens=8, sampler=Sampler())
        out = llm.generate("Sara hid a magic key", max_new_tokens=8)
        assert out.generated_tokens == ref.generated_tokens

    def test_reloaded_weights_bitwise_equal(self, small_checkpoint, tmp_path):
        path = save_checkpoint(small_checkpoint, tmp_path / "m.bin")
        reloaded = load_checkpoint(path)
        for name, tensor in small_checkpoint.weights.items():
            assert np.array_equal(reloaded.weights[name], tensor)
