"""Tests for repro.graph.builder."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.graph.builder import GraphBuilder, build_decode_graph, hidden_state
from repro.graph.fusion import fuse_graph
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
        kinds_micro = Counter(op.kind for op in g_micro)
        kinds_small = Counter(op.kind for op in g_small)
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

    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("tp", [1, 2])
    def test_the_tail_reads_only_the_hidden_state(self, small_config, fused, tp):
        """What lets a slot without logits run the step's body: the
        operators after the one writing the hidden state are the final
        norm and the classifier, and they read nothing of the body but
        that tensor."""
        shard = ShardSpec.from_config(small_config, tp) if tp > 1 else None
        g = GraphBuilder(small_config, shard=shard).build_decode_step(3)
        if fused:
            g = fuse_graph(g)
        order = g.topological_order()
        hidden = hidden_state(small_config)
        assert hidden == f"x.{small_config.n_layers}"
        body = next(i for i, op in enumerate(order) if hidden in op.outputs) + 1
        tail = order[body:]
        assert [kind for op in tail for kind in op.member_kinds()] == [
            OpKind.RMSNORM, OpKind.MATMUL]
        made_in_tail = {t for op in tail for t in op.outputs}
        read = {t for op in tail for t in op.inputs
                if not g.tensor(t).is_weight and t not in made_in_tail}
        assert read == {hidden}
        assert "logits" in made_in_tail

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
        op, = (o for o in g if o.name == "L1.kv_append")
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


def _layer_0_window(graph):
    """Layer 0's window operators of a step graph, in order."""
    return [op for op in graph
            if op.kind in _WINDOW_KINDS and op.attributes["layer"] == 0]


def _window_boundary(graph):
    return {t: graph.tensor(t) for op in _layer_0_window(graph)
            if op.kind in (OpKind.KV_APPEND, OpKind.ATTN_SCORE)
            for t in op.inputs if graph.producer_of(t).kind is not OpKind.KV_APPEND}


class TestBuildWindow:
    @pytest.mark.parametrize("model,tp,quant", [
        ("test-micro", 1, QuantConfig.datapath(8)),
        ("test-small", 2, QuantConfig(weights=QuantSpec(8, 16), kv=QuantSpec(8, 16))),
        ("stories15M", 1, QuantConfig.fp32()),
        ("stories15M", 2, QuantConfig(weights=QuantSpec(4, 16), kv=QuantSpec(8, 16))),
    ])
    def test_window_is_layer_0s_window_operators(self, model, tp, quant):
        """The window is one layer's: layer 0's KV append and attention
        operators of the step, with their names, costs and attributes,
        over the step's tensor specs."""
        config = preset(model)
        shard = ShardSpec.from_config(config, tp) if tp > 1 else None
        builder = GraphBuilder(config, shard=shard, quant=quant)
        for context in (0, 9, config.max_seq_len - 1):
            step = builder.build_decode_step(context)
            window = builder.build_window(context, _window_boundary(step))
            assert window.name == step.name
            assert list(window.operators.values()) == _layer_0_window(step)
            assert all(step.tensor(name) == spec
                       for name, spec in window.tensors.items())

    def test_window_rejects_a_context_outside_the_model(self, micro_config):
        builder = GraphBuilder(micro_config)
        boundary = _window_boundary(builder.build_decode_step(0))
        with pytest.raises(ValueError):
            builder.build_window(-1, boundary)
        with pytest.raises(ValueError):
            builder.build_window(micro_config.max_seq_len, boundary)
