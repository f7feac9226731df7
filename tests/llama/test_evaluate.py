"""Tests for repro.llama.evaluate (perplexity / agreement metrics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llama.evaluate import (
    cross_entropy,
    divergence_report,
    perplexity,
    token_agreement,
)
from repro.llama.checkpoint import Checkpoint, synthesize_weights
from repro.llama.model import LlamaModel
from repro.llama.quantization import QuantSpec, dequantize, quantize


class TestCrossEntropyPerplexity:
    def test_positive_and_bounded_by_vocab(self, micro_model, micro_config):
        sequences = [[1, 5, 9, 12, 3], [2, 7, 7, 1]]
        ce = cross_entropy(micro_model, sequences)
        assert 0 < ce < np.log(micro_config.vocab_size) + 1.0

    def test_perplexity_is_exp_of_cross_entropy(self, micro_model):
        sequences = [[1, 5, 9, 12, 3]]
        assert perplexity(micro_model, sequences) == pytest.approx(
            np.exp(cross_entropy(micro_model, sequences))
        )

    def test_untrained_model_near_uniform(self, micro_model, micro_config):
        """Synthetic (untrained) weights should be close to the uniform loss."""
        sequences = [list(range(1, 20))]
        ce = cross_entropy(micro_model, sequences)
        uniform = np.log(micro_config.vocab_size)
        assert abs(ce - uniform) < 1.5

    def test_empty_sequences_rejected(self, micro_model):
        with pytest.raises(ValueError):
            cross_entropy(micro_model, [[5]])

    def test_deterministic(self, micro_model):
        seqs = [[1, 2, 3, 4, 5]]
        assert cross_entropy(micro_model, seqs) == cross_entropy(micro_model, seqs)


class TestTokenAgreement:
    def test_identical_models_agree_fully(self, micro_model):
        assert token_agreement(micro_model, micro_model, [[1, 4, 9, 2, 7]]) == 1.0

    def test_quantized_model_agrees_mostly(self, small_checkpoint, small_model):
        spec = QuantSpec(bits=8, group_size=16)
        weights = {
            name: (dequantize(quantize(w, spec)) if w.ndim >= 2 else w)
            for name, w in small_checkpoint.weights.items()
        }
        quantized = LlamaModel(Checkpoint(config=small_checkpoint.config,
                                          weights=weights))
        agreement = token_agreement(small_model, quantized,
                                    [[1, 9, 33, 7, 12, 40, 3]])
        assert agreement > 0.6

    def test_different_models_disagree_somewhere(self, micro_config):
        a = LlamaModel(synthesize_weights(micro_config, seed=1))
        b = LlamaModel(synthesize_weights(micro_config, seed=2))
        agreement = token_agreement(a, b, [list(range(1, 24))])
        assert agreement < 1.0

    def test_no_positions_rejected(self, micro_model):
        with pytest.raises(ValueError):
            token_agreement(micro_model, micro_model, [[1]])

    def test_is_the_divergence_report_agreement(self, micro_config):
        a = LlamaModel(synthesize_weights(micro_config, seed=1))
        b = LlamaModel(synthesize_weights(micro_config, seed=2))
        sequences = [list(range(1, 24)), [3, 1, 4, 1, 5, 9, 2, 6]]
        report = divergence_report(a, b, sequences)
        assert token_agreement(a, b, sequences) == report.token_agreement
        assert report.token_agreement == report.n_agreements / report.n_positions
        assert report.n_positions == 22 + 7
        assert 0 < report.n_agreements < report.n_positions

    def test_window_is_the_cache_capacity(self, micro_model, micro_config):
        """Sequences are scored up to the cache's capacity, whichever
        model (or accelerator) supplies the cache."""
        too_long = [1] * (micro_config.max_seq_len + 5)
        report = divergence_report(micro_model, micro_model, [too_long])
        assert report.n_positions == micro_config.max_seq_len - 1
