"""High-level public API of the SpeedLLM reproduction.

:class:`SpeedLLM` is the one-stop object downstream users interact with:
it owns a model checkpoint (synthetic by default, or loaded from a
llama2.c ``.bin`` file), a tokenizer (trained on the synthetic TinyStories
corpus, or loaded from disk), and a simulated accelerator, and it exposes
text-in/text-out generation with the latency, throughput and energy
figures a run on the real board would report.

Example
-------
>>> from repro import SpeedLLM
>>> llm = SpeedLLM(model="test-small", variant="full", max_vocab=512)
>>> out = llm.generate("Once upon a time", max_new_tokens=16)
>>> isinstance(out.text, str)
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..accel.accelerator import AcceleratorGeneration, GenerationMetrics, SpeedLLMAccelerator
from ..accel.config import AcceleratorConfig
from ..api.params import SamplingParams
from ..fpga.power import EnergyModelConfig
from ..fpga.resources import UtilizationReport
from ..fpga.u280 import FpgaPlatform, u280
from ..llama.checkpoint import Checkpoint, load_checkpoint, synthesize_weights
from ..llama.config import LlamaConfig, preset
from ..llama.generation import generate as reference_generate
from ..llama.model import LlamaModel
from ..llama.tokenizer import Tokenizer, train_bpe
from ..workloads.tinystories import generate_corpus

__all__ = ["SpeedLLM", "SpeedLLMOutput"]


@dataclass
class SpeedLLMOutput:
    """Result of one text generation on the simulated accelerator."""

    prompt: str
    text: str
    prompt_tokens: List[int]
    generated_tokens: List[int]
    metrics: GenerationMetrics

    @property
    def latency_ms(self) -> float:
        """Simulated end-to-end inference latency in milliseconds."""
        return self.metrics.total_seconds * 1e3

    @property
    def decode_tokens_per_second(self) -> float:
        return self.metrics.decode_tokens_per_second

    @property
    def tokens_per_joule(self) -> float:
        return self.metrics.tokens_per_joule


class SpeedLLM:
    """TinyLlama inference on a simulated SpeedLLM U280 accelerator."""

    def __init__(
        self,
        model: str | LlamaConfig = "stories15M",
        variant: str = "full",
        seed: int = 0,
        checkpoint: Optional[Checkpoint] = None,
        tokenizer: Optional[Tokenizer] = None,
        platform: Optional[FpgaPlatform] = None,
        accel_config: Optional[AcceleratorConfig] = None,
        energy_accounting: str = "board",
        max_vocab: Optional[int] = None,
        tokenizer_corpus_docs: int = 400,
        position_stride: int = 8,
    ) -> None:
        """Build the full stack for one model + one accelerator design point.

        Parameters
        ----------
        model:
            Preset name (``stories15M`` …) or an explicit :class:`LlamaConfig`.
        variant:
            Accelerator design point (``full``, ``unoptimized``, ``no-fusion`` …).
        checkpoint / tokenizer:
            Supply real artifacts if available; synthetic ones are built
            otherwise (documented substitution, see DESIGN.md).
        energy_accounting:
            ``"board"`` for whole-card energy, ``"effective"`` for the
            kernel-level accounting the paper's Fig. 2(b) uses.
        max_vocab:
            Cap on the tokenizer vocabulary (useful for the tiny test
            models whose embedding tables are much smaller than 32k).
        position_stride:
            Timing-simulation stride used for generation metrics.
        accel_config:
            The design point; its ``quant`` is how every weight and KV
            byte is stored (``QuantConfig.fp32()`` makes functional
            outputs bit-identical to a float32 CPU run of the checkpoint).
        """
        if energy_accounting not in ("board", "effective"):
            raise ValueError("energy_accounting must be 'board' or 'effective'")
        self.model_config = model if isinstance(model, LlamaConfig) else preset(model)
        self.checkpoint = checkpoint or synthesize_weights(self.model_config, seed=seed)
        if self.checkpoint.config != self.model_config:
            self.model_config = self.checkpoint.config
        self.variant = variant
        self.accel_config = accel_config or AcceleratorConfig.variant(variant)
        if platform is None:
            platform = u280()
            if energy_accounting == "effective":
                platform = dataclasses.replace(
                    platform, energy_config=EnergyModelConfig.effective()
                )
        self.platform = platform
        self.position_stride = position_stride

        if tokenizer is None:
            vocab_target = min(
                self.model_config.vocab_size,
                max_vocab if max_vocab is not None else self.model_config.vocab_size,
            )
            if vocab_target < 259:
                raise ValueError(
                    f"the model vocab size ({vocab_target}) is too small to host "
                    "a byte-level BPE tokenizer (needs >= 259 entries); pass an "
                    "explicit tokenizer or use a model with a larger vocabulary"
                )
            corpus = generate_corpus(tokenizer_corpus_docs, seed=seed)
            tokenizer = train_bpe(corpus, vocab_size=vocab_target)
        if tokenizer.vocab_size > self.model_config.vocab_size:
            raise ValueError(
                f"tokenizer vocabulary ({tokenizer.vocab_size}) exceeds the "
                f"model vocabulary ({self.model_config.vocab_size})"
            )
        self.tokenizer = tokenizer

        self.accelerator = SpeedLLMAccelerator(
            self.checkpoint, self.accel_config, platform=self.platform,
        )
        self._reference_model: Optional[LlamaModel] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        checkpoint_path: str | Path,
        tokenizer_path: Optional[str | Path] = None,
        **kwargs,
    ) -> "SpeedLLM":
        """Load a real llama2.c checkpoint (and optionally tokenizer) from disk."""
        checkpoint = load_checkpoint(checkpoint_path)
        tokenizer = Tokenizer.load(tokenizer_path) if tokenizer_path else None
        return cls(model=checkpoint.config, checkpoint=checkpoint,
                   tokenizer=tokenizer, **kwargs)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def encode(self, prompt: str) -> List[int]:
        """Tokenise a prompt with the BOS prefix used by the decode loop."""
        return self.tokenizer.encode(prompt, bos=True, eos=False)

    def generate(
        self,
        prompt: str,
        max_new_tokens: int = 64,
        temperature: float = 0.0,
        top_p: float = 1.0,
        seed: int = 0,
        params: Optional[SamplingParams] = None,
    ) -> SpeedLLMOutput:
        """Generate a completion on the simulated accelerator.

        Pass a :class:`~repro.api.SamplingParams` to share one validated
        configuration with the serving engine; the loose keyword
        arguments build the identical params object.
        """
        if params is None:
            params = SamplingParams(max_tokens=max_new_tokens,
                                    temperature=temperature, top_p=top_p,
                                    seed=seed)
        tokens = self.encode(prompt)
        result: AcceleratorGeneration = self.accelerator.generate(
            tokens, max_new_tokens=params.max_tokens,
            sampler=params.build_sampler(),
            position_stride=self.position_stride,
        )
        return SpeedLLMOutput(
            prompt=prompt,
            text=self.tokenizer.decode(result.generated_tokens),
            prompt_tokens=result.prompt_tokens,
            generated_tokens=result.generated_tokens,
            metrics=result.metrics,
        )

    def reference_generate(
        self,
        prompt: str,
        max_new_tokens: int = 64,
        temperature: float = 0.0,
        top_p: float = 1.0,
        seed: int = 0,
        params: Optional[SamplingParams] = None,
    ) -> str:
        """Generate with the NumPy reference engine.

        The reference model runs over the accelerator's *functional*
        weights (i.e. the dequantised int8 values when the datapath is
        quantised), so greedy decodes are token-for-token comparable with
        :meth:`generate`.
        """
        if params is None:
            params = SamplingParams(max_tokens=max_new_tokens,
                                    temperature=temperature, top_p=top_p,
                                    seed=seed)
        if self._reference_model is None:
            self._reference_model = LlamaModel(self.accelerator.functional_checkpoint())
        result = reference_generate(
            self._reference_model, self.encode(prompt),
            max_new_tokens=params.max_tokens, sampler=params.build_sampler(),
        )
        return self.tokenizer.decode(result.generated_tokens)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def benchmark(
        self,
        n_prompt: int = 8,
        n_generated: int = 64,
        position_stride: Optional[int] = None,
    ) -> GenerationMetrics:
        """Timing/energy of a synthetic workload without functional decode."""
        return self.accelerator.simulate_generation(
            n_prompt=n_prompt,
            n_generated=n_generated,
            position_stride=position_stride or self.position_stride,
        )

    def resource_report(self) -> UtilizationReport:
        """U280 resource utilisation of the configured design."""
        return self.accelerator.resource_report()

    def describe(self) -> Dict[str, object]:
        """Flat description of the whole stack (model + design point)."""
        return {
            "model": self.model_config.name,
            "n_params": self.checkpoint.n_params,
            "vocab_size": self.model_config.vocab_size,
            "tokenizer_vocab": self.tokenizer.vocab_size,
            "platform": self.platform.name,
            "clock_mhz": self.platform.clock_mhz,
            **self.accel_config.describe(),
        }
