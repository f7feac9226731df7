"""Tests for repro.graph.fusion (paper contribution 3)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.graph.builder import build_decode_graph
from repro.graph.fusion import FusionRule, default_rules, fuse_graph
from repro.graph.graph import Graph
from repro.graph.ops import Operator, OpKind, TensorSpec


def _offchip_intermediate_bytes(graph):
    """Bytes of off-chip tensors both produced and consumed in ``graph``."""
    produced = {t for op in graph for t in op.outputs}
    consumed = {t for op in graph for t in op.inputs}
    return sum(spec.nbytes for name, spec in graph.tensors.items()
               if name in produced and name in consumed
               and spec.resident == "offchip")


def _rule_counts(graph):
    """Fused regions per rule, read off the fused operators' ``rule``."""
    return Counter(op.attributes["rule"] for op in graph if op.kind is OpKind.FUSED)


def _eliminated_bytes(unfused, fused):
    """Bytes of the tensors of ``unfused`` that fusion folded away."""
    return sum(spec.nbytes for name, spec in unfused.tensors.items()
               if name not in fused.tensors)


def _inputs(graph):
    """Tensors consumed but never produced inside ``graph``."""
    produced = {t for op in graph for t in op.outputs}
    return {t for op in graph for t in op.inputs if t not in produced}


class TestFusionRules:
    def test_default_rules_cover_paper_patterns(self):
        names = {r.name for r in default_rules()}
        assert {"attention-core", "swiglu-down", "proj-residual",
                "matmul-rope", "norm-classifier"} <= names

    def test_rule_requires_two_ops(self):
        with pytest.raises(ValueError):
            FusionRule("bad", (OpKind.MATMUL,))

    def test_rule_cannot_match_fused(self):
        with pytest.raises(ValueError):
            FusionRule("bad", (OpKind.FUSED, OpKind.ADD))


class TestFuseDecodeGraph:
    @pytest.fixture(scope="class")
    def graphs(self, small_config):
        unfused = build_decode_graph(small_config, context_len=4)
        return unfused, fuse_graph(unfused)

    def test_reduces_operator_count(self, graphs):
        unfused, fused = graphs
        assert len(fused) < len(unfused)

    def test_fused_graph_validates(self, graphs):
        _, fused = graphs
        fused.validate()

    def test_preserves_total_flops(self, graphs):
        unfused, fused = graphs
        assert fused.total_flops() == unfused.total_flops()

    def test_preserves_weight_bytes(self, graphs):
        unfused, fused = graphs
        assert fused.total_weight_bytes() == unfused.total_weight_bytes()

    def test_eliminates_intermediate_traffic(self, graphs):
        unfused, fused = graphs
        assert set(fused.tensors) < set(unfused.tensors)
        assert _eliminated_bytes(unfused, fused) > 0
        assert (_offchip_intermediate_bytes(fused)
                < _offchip_intermediate_bytes(unfused))

    def test_rule_counts_per_layer(self, graphs, small_config):
        _, fused = graphs
        counts = _rule_counts(fused)
        n = small_config.n_layers
        assert counts["attention-core"] == n
        assert counts["swiglu-down"] == n
        assert counts["matmul-rope"] == 2 * n     # wq->rope_q and wk->rope_k
        assert counts["norm-classifier"] == 1

    def test_same_inputs_and_outputs(self, graphs):
        unfused, fused = graphs
        assert _inputs(unfused) == _inputs(fused)
        assert set(unfused.graph_outputs()) == set(fused.graph_outputs())

    def test_original_graph_untouched(self, small_config):
        unfused = build_decode_graph(small_config, context_len=2)
        n_ops_before = len(unfused)
        fuse_graph(unfused)
        assert len(unfused) == n_ops_before

    def test_second_pass_is_noop(self, graphs):
        _, fused = graphs
        again = fuse_graph(fused)
        assert [op.name for op in again] == [op.name for op in fused]
        assert set(again.tensors) == set(fused.tensors)

    def test_fused_ops_record_rule(self, graphs):
        _, fused = graphs
        fused_ops = [op for op in fused if op.kind is OpKind.FUSED]
        assert fused_ops
        assert all("rule" in op.attributes for op in fused_ops)


class TestChainMatching:
    def _linear_graph(self, multi_consumer: bool) -> Graph:
        g = Graph()
        for n in ("a", "b", "c"):
            g.add_tensor(TensorSpec(name=n, shape=(8,)))
        g.add_operator(Operator(name="s", kind=OpKind.SILU, inputs=["a"],
                                outputs=["b"], flops=8))
        g.add_operator(Operator(name="m", kind=OpKind.MUL, inputs=["b", "a"],
                                outputs=["c"], flops=8))
        if multi_consumer:
            g.add_tensor(TensorSpec(name="d", shape=(8,)))
            g.add_operator(Operator(name="extra", kind=OpKind.ADD,
                                    inputs=["b"], outputs=["d"], flops=8))
        return g

    def test_exclusive_chain_fused(self):
        g = self._linear_graph(multi_consumer=False)
        fused = fuse_graph(g, [FusionRule("silu-mul", (OpKind.SILU, OpKind.MUL))])
        assert _rule_counts(fused) == {"silu-mul": 1}
        assert "b" not in fused.tensors        # internal tensor removed

    def test_shared_intermediate_blocks_fusion(self):
        g = self._linear_graph(multi_consumer=True)
        fused = fuse_graph(g, [FusionRule("silu-mul", (OpKind.SILU, OpKind.MUL))])
        assert not _rule_counts(fused)
        assert "b" in fused.tensors

    def test_longer_rules_win(self, small_config):
        """The 3-op attention rule must beat a 2-op prefix rule."""
        graph = build_decode_graph(small_config, 1)
        rules = [
            FusionRule("score-softmax", (OpKind.ATTN_SCORE, OpKind.SOFTMAX)),
            FusionRule("attention-core",
                       (OpKind.ATTN_SCORE, OpKind.SOFTMAX, OpKind.ATTN_CONTEXT)),
        ]
        counts = _rule_counts(fuse_graph(graph, rules))
        assert counts["attention-core"] == small_config.n_layers
        assert "score-softmax" not in counts
