"""Tests for repro.llama.config."""

from __future__ import annotations

import pytest

from repro.llama.config import LlamaConfig, PRESETS, available_presets, preset


class TestPresets:
    def test_stories15m_dimensions(self):
        cfg = preset("stories15M")
        assert cfg.dim == 288
        assert cfg.n_layers == 6
        assert cfg.n_heads == 6
        assert cfg.n_kv_heads == 6
        assert cfg.vocab_size == 32000
        assert cfg.max_seq_len == 256

    def test_stories15m_parameter_count_is_about_15m(self):
        cfg = preset("stories15M")
        assert 14_000_000 < cfg.n_params() < 16_000_000

    def test_stories42m_and_110m_larger(self):
        assert preset("stories42M").n_params() > preset("stories15M").n_params()
        assert preset("stories110M").n_params() > preset("stories42M").n_params()

    def test_unknown_preset_raises_with_available_names(self):
        with pytest.raises(KeyError, match="stories15M"):
            preset("nonexistent-model")

    def test_available_presets_sorted_and_complete(self):
        names = available_presets()
        assert names == tuple(sorted(names))
        assert set(names) == set(PRESETS)

    def test_tinyllama_uses_grouped_query_attention(self):
        cfg = preset("tinyllama1.1B")
        assert cfg.n_kv_heads < cfg.n_heads
        assert cfg.group_size == 8


class TestDerivedQuantities:
    def test_head_dim(self):
        assert preset("stories15M").head_dim == 48

    def test_kv_dim_equals_dim_without_gqa(self):
        cfg = preset("stories15M")
        assert cfg.kv_dim == cfg.dim

    def test_kv_dim_smaller_with_gqa(self):
        cfg = preset("test-small")
        assert cfg.kv_dim == cfg.dim // 2

    def test_resolved_hidden_dim_explicit(self):
        assert preset("stories15M").resolved_hidden_dim() == 768

    def test_resolved_hidden_dim_derived_follows_llama2c_rule(self):
        cfg = LlamaConfig(dim=288, hidden_dim=0, multiple_of=32)
        hidden = cfg.resolved_hidden_dim()
        assert hidden % 32 == 0
        assert hidden >= int(2 * 4 * 288 / 3)

    def test_kv_cache_elements(self):
        cfg = preset("test-micro")
        assert cfg.kv_cache_elements(4) == 2 * cfg.n_layers * 4 * cfg.kv_dim
        assert cfg.kv_cache_elements() == cfg.kv_cache_elements(cfg.max_seq_len)

    def test_kv_cache_elements_negative_rejected(self):
        with pytest.raises(ValueError):
            preset("test-micro").kv_cache_elements(-1)

    def test_flops_per_token_grows_with_context(self):
        cfg = preset("stories15M")
        assert cfg.flops_per_token(128) > cfg.flops_per_token(1)

    def test_flops_per_token_roughly_2x_params(self):
        cfg = preset("stories15M")
        # decode FLOPs are ~2 * (non-embedding params + classifier) per token
        assert cfg.flops_per_token(1) > cfg.n_params()


class TestParameterShapes:
    def test_all_layers_present(self):
        cfg = preset("test-small")
        names = [n for n, _ in cfg.parameter_shapes()]
        for layer in range(cfg.n_layers):
            assert f"layers.{layer}.attention.wq.weight" in names
            assert f"layers.{layer}.feed_forward.w2.weight" in names

    def test_shared_classifier_omits_output_weight(self):
        names = [n for n, _ in preset("test-small").parameter_shapes()]
        assert "output.weight" not in names

    def test_unshared_classifier_includes_output_weight(self):
        cfg = preset("test-small").replace(shared_classifier=False)
        names = [n for n, _ in cfg.parameter_shapes()]
        assert "output.weight" in names

    def test_wk_shape_respects_gqa(self):
        cfg = preset("test-small")
        shapes = dict(cfg.parameter_shapes())
        assert shapes["layers.0.attention.wk.weight"] == (cfg.kv_dim, cfg.dim)
        assert shapes["layers.0.attention.wq.weight"] == (cfg.dim, cfg.dim)

    def test_n_params_matches_shapes(self):
        cfg = preset("test-micro")
        total = 0
        for _, shape in cfg.parameter_shapes():
            n = 1
            for s in shape:
                n *= s
            total += n
        assert cfg.n_params() == total


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("dim", 0), ("dim", -8), ("n_layers", 0), ("n_heads", 0),
        ("n_kv_heads", 0), ("vocab_size", 0), ("max_seq_len", 0),
        ("norm_eps", 0.0), ("hidden_dim", -1), ("multiple_of", 0),
    ])
    def test_non_positive_fields_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValueError):
            LlamaConfig(**kwargs)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            LlamaConfig(dim=30, n_heads=4)

    def test_heads_must_divide_kv_heads(self):
        with pytest.raises(ValueError, match="grouped-query"):
            LlamaConfig(dim=32, n_heads=4, n_kv_heads=3)


class TestSerialization:
    def test_dict_roundtrip(self):
        cfg = preset("stories15M")
        assert LlamaConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_ignores_unknown_keys(self):
        cfg = LlamaConfig.from_dict(
            {"dim": 32, "n_heads": 4, "n_kv_heads": 4, "bogus": 1}
        )
        assert cfg.dim == 32

    def test_replace_returns_new_config(self):
        cfg = preset("test-micro")
        other = cfg.replace(max_seq_len=64)
        assert other.max_seq_len == 64
        assert cfg.max_seq_len == 32
        assert other != cfg

    def test_configs_hashable(self):
        assert len({preset("test-micro"), preset("test-small")}) == 2
