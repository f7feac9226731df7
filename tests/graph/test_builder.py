"""Tests for repro.graph.builder."""

from __future__ import annotations

import pytest

from repro.graph.builder import GraphBuilder, build_decode_graph
from repro.graph.ops import OpKind
from repro.graph.sharding import ShardSpec
from repro.llama.config import preset
from repro.llama.quantization import QuantSpec
from repro.quant import QuantConfig


class TestBuildDecodeGraph:
    def test_graph_validates(self, micro_config):
        build_decode_graph(micro_config, context_len=3).validate()

    def test_operator_counts_scale_with_layers(self, micro_config, small_config):
        g_micro = build_decode_graph(micro_config, 0)
        g_small = build_decode_graph(small_config, 0)
        kinds_micro = g_micro.count_kinds()
        kinds_small = g_small.count_kinds()
        assert kinds_micro[OpKind.MATMUL] == 7 * micro_config.n_layers + 1
        assert kinds_small[OpKind.MATMUL] == 7 * small_config.n_layers + 1
        assert kinds_micro[OpKind.RMSNORM] == 2 * micro_config.n_layers + 1
        assert kinds_micro[OpKind.ATTN_SCORE] == micro_config.n_layers
        assert kinds_micro[OpKind.EMBED] == 1

    def test_single_logits_output(self, micro_config):
        g = build_decode_graph(micro_config, 2)
        outputs = g.graph_outputs()
        assert "logits" in outputs
        assert g.tensor("logits").shape == (micro_config.vocab_size,)

    def test_weight_bytes_match_quantization(self, micro_config):
        g8 = build_decode_graph(micro_config, 0, quant=QuantConfig.datapath(8))
        g32 = build_decode_graph(micro_config, 0, quant=QuantConfig.fp32())
        # norm weights stay float32, so the ratio is a bit below 4x
        assert g32.total_weight_bytes() > 3 * g8.total_weight_bytes()

    def test_flops_grow_with_context(self, micro_config):
        g_short = build_decode_graph(micro_config, 1)
        g_long = build_decode_graph(micro_config, 16)
        assert g_long.total_flops() > g_short.total_flops()

    def test_flops_close_to_config_estimate(self):
        cfg = preset("stories15M")
        graph_flops = build_decode_graph(cfg, 64).total_flops()
        estimate = cfg.flops_per_token(64)
        assert 0.5 * estimate < graph_flops < 2.0 * estimate

    def test_attention_window_in_cache_tensor(self, micro_config):
        g = build_decode_graph(micro_config, 5)
        assert g.tensor("L0.cache_k").shape == (6, micro_config.kv_dim)

    def test_residual_structure(self, micro_config):
        g = build_decode_graph(micro_config, 0)
        # x.0 (embedding) feeds both the first norm and the first residual add
        consumers = {op.name for op in g.consumers_of("x.0")}
        assert consumers == {"L0.attn_norm", "L0.residual_attn"}

    def test_invalid_context_len(self, micro_config):
        with pytest.raises(ValueError):
            build_decode_graph(micro_config, -1)
        with pytest.raises(ValueError):
            build_decode_graph(micro_config, micro_config.max_seq_len)

    def test_invalid_weight_dtype(self, micro_config):
        with pytest.raises(ValueError):
            GraphBuilder(micro_config, quant=QuantConfig.datapath(3))

    def test_gqa_shapes(self, small_config):
        g = build_decode_graph(small_config, 0)
        wk = g.tensor("L0.attention.wk.weight")
        wq = g.tensor("L0.attention.wq.weight")
        assert wk.shape == (small_config.kv_dim, small_config.dim)
        assert wq.shape == (small_config.dim, small_config.dim)

    def test_kv_append_attributes(self, micro_config):
        g = build_decode_graph(micro_config, 4)
        op = g.op("L1.kv_append")
        assert op.attributes["attn_len"] == 5
        assert op.attributes["kv_dim"] == micro_config.kv_dim

    def test_insertion_order_is_topological(self, micro_config):
        g = build_decode_graph(micro_config, 2)
        names_inserted = [op.name for op in g]
        positions = {name: i for i, name in enumerate(names_inserted)}
        for op in g:
            for pred in g.predecessors(op):
                assert positions[pred.name] < positions[op.name]


_WINDOW_KINDS = {OpKind.KV_APPEND, OpKind.ATTN_SCORE, OpKind.SOFTMAX,
                 OpKind.ATTN_CONTEXT}


def _window_boundary(graph):
    return {t: graph.tensor(t) for op in graph
            if op.kind in (OpKind.KV_APPEND, OpKind.ATTN_SCORE)
            for t in op.inputs if graph.producer_of(t).kind is not OpKind.KV_APPEND}


class TestBuildWindow:
    @pytest.mark.parametrize("model,tp,quant", [
        ("test-micro", 1, QuantConfig.datapath(8)),
        ("test-small", 2, QuantConfig(weights=QuantSpec(8, 16), kv=QuantSpec(8, 16))),
        ("stories15M", 1, QuantConfig.fp32()),
        ("stories15M", 2, QuantConfig(weights=QuantSpec(4, 16), kv=QuantSpec(8, 16))),
    ])
    def test_window_is_the_steps_window_operators(self, model, tp, quant):
        config = preset(model)
        shard = ShardSpec.from_config(config, tp) if tp > 1 else None
        builder = GraphBuilder(config, shard=shard, quant=quant)
        for context in (0, 9, config.max_seq_len - 1):
            step = builder.build_decode_step(context, include_logits=False)
            window = builder.build_window(context, _window_boundary(step),
                                          include_logits=False)
            assert window.name == step.name
            assert list(window.operators.values()) == [
                op for op in step if op.kind in _WINDOW_KINDS]
            assert all(step.tensor(name) == spec
                       for name, spec in window.tensors.items())

    def test_window_rejects_a_context_outside_the_model(self, micro_config):
        builder = GraphBuilder(micro_config)
        boundary = _window_boundary(builder.build_decode_step(0))
        with pytest.raises(ValueError):
            builder.build_window(-1, boundary)
        with pytest.raises(ValueError):
            builder.build_window(micro_config.max_seq_len, boundary)
