"""Tests for repro.llama.model (operators and the forward pass)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.llama.model import (
    ForwardTrace,
    LlamaModel,
    apply_rope,
    attention_scores,
    rmsnorm,
    rope_frequencies,
    silu,
    softmax,
    swiglu,
)


class TestElementaryOps:
    def test_rmsnorm_unit_weight_normalises(self):
        x = np.array([3.0, 4.0], dtype=np.float32)
        out = rmsnorm(x, np.ones(2, dtype=np.float32), eps=0.0)
        assert np.allclose(np.mean(out ** 2), 1.0, atol=1e-5)

    def test_rmsnorm_applies_weight(self):
        x = np.ones(4, dtype=np.float32)
        w = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        out = rmsnorm(x, w, eps=0.0)
        assert np.allclose(out, w)

    def test_softmax_sums_to_one(self):
        x = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]], dtype=np.float32)
        assert np.allclose(softmax(x).sum(axis=-1), 1.0)

    def test_softmax_stable_for_large_inputs(self):
        x = np.array([1e4, 1e4 + 1], dtype=np.float32)
        out = softmax(x)
        assert np.all(np.isfinite(out))
        assert out[1] > out[0]

    def test_silu_known_values(self):
        assert silu(np.float32(0.0)) == pytest.approx(0.0)
        assert silu(np.float32(10.0)) == pytest.approx(10.0, rel=1e-3)

    def test_swiglu_matches_definition(self):
        gate = np.array([0.5, -1.0], dtype=np.float32)
        up = np.array([2.0, 3.0], dtype=np.float32)
        assert np.allclose(swiglu(gate, up), silu(gate) * up)

    def test_attention_scores_scaling(self):
        q = np.ones(4, dtype=np.float32)
        keys = np.ones((3, 4), dtype=np.float32)
        assert np.allclose(attention_scores(q, keys), 4.0 / 2.0)

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float32, (8,), elements=st.floats(-50, 50, width=32)))
    def test_softmax_probability_property(self, x):
        out = softmax(x)
        assert np.all(out >= 0)
        assert np.isclose(out.sum(), 1.0, atol=1e-5)


class TestRoPE:
    def test_frequencies_shape(self):
        freqs = rope_frequencies(head_dim=8, max_seq_len=16)
        assert freqs.shape == (16, 4)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_frequencies(head_dim=7, max_seq_len=4)

    def test_position_zero_is_identity(self):
        freqs = rope_frequencies(8, 4)
        x = np.random.default_rng(0).normal(size=(2, 8)).astype(np.float32)
        assert np.allclose(apply_rope(x, freqs[0]), x, atol=1e-6)

    def test_rotation_preserves_norm(self):
        freqs = rope_frequencies(8, 16)
        x = np.random.default_rng(1).normal(size=(3, 8)).astype(np.float32)
        rotated = apply_rope(x, freqs[7])
        assert np.allclose(np.linalg.norm(rotated, axis=-1),
                           np.linalg.norm(x, axis=-1), rtol=1e-5)

    def test_relative_property_of_dot_products(self):
        """RoPE dot products depend only on relative position."""
        head_dim = 16
        freqs = rope_frequencies(head_dim, 32)
        rng = np.random.default_rng(2)
        q = rng.normal(size=head_dim).astype(np.float32)
        k = rng.normal(size=head_dim).astype(np.float32)
        dot_a = apply_rope(q[None], freqs[5])[0] @ apply_rope(k[None], freqs[3])[0]
        dot_b = apply_rope(q[None], freqs[12])[0] @ apply_rope(k[None], freqs[10])[0]
        assert dot_a == pytest.approx(dot_b, rel=1e-4, abs=1e-4)


class TestForwardPass:
    def test_logits_shape_and_finite(self, micro_model, micro_config):
        cache = micro_model.new_cache()
        logits = micro_model.forward(1, 0, cache)
        assert logits.shape == (micro_config.vocab_size,)
        assert np.all(np.isfinite(logits))

    def test_forward_deterministic(self, micro_model):
        a = micro_model.forward(3, 0, micro_model.new_cache())
        b = micro_model.forward(3, 0, micro_model.new_cache())
        assert np.array_equal(a, b)

    def test_forward_depends_on_history(self, micro_model):
        cache1 = micro_model.new_cache()
        micro_model.forward(1, 0, cache1)
        out1 = micro_model.forward(5, 1, cache1)
        cache2 = micro_model.new_cache()
        micro_model.forward(2, 0, cache2)
        out2 = micro_model.forward(5, 1, cache2)
        assert not np.allclose(out1, out2)

    def test_token_out_of_vocab(self, micro_model, micro_config):
        with pytest.raises(IndexError):
            micro_model.forward(micro_config.vocab_size, 0, micro_model.new_cache())

    def test_position_beyond_cache(self, micro_model):
        cache = micro_model.new_cache(max_seq_len=2)
        with pytest.raises(IndexError):
            micro_model.forward(1, 2, cache)

    def test_gqa_model_runs(self, small_model, small_config):
        assert small_config.n_kv_heads < small_config.n_heads
        cache = small_model.new_cache()
        for pos, token in enumerate([1, 2, 3]):
            logits = small_model.forward(token, pos, cache)
        assert logits.shape == (small_config.vocab_size,)
        assert cache.length == 3

    def test_trace_records_layers(self, micro_model, micro_config):
        trace = ForwardTrace(activations={})
        micro_model.forward(1, 0, micro_model.new_cache(), trace=trace)
        assert "embedding" in trace.activations
        assert "logits" in trace.activations
        assert f"layer{micro_config.n_layers - 1}.out" in trace.activations

    def test_shared_classifier_ties_embeddings(self, micro_checkpoint):
        """Logit of token t is embedding[t] . hidden when the classifier is tied."""
        model = LlamaModel(micro_checkpoint)
        cache = model.new_cache()
        logits = model.forward(1, 0, cache)
        # reconstruct manually from the final hidden state
        trace = ForwardTrace(activations={})
        model.forward(1, 0, model.new_cache(), trace=trace)
        assert logits.shape[0] == micro_checkpoint.config.vocab_size
