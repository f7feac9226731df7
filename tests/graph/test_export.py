"""Tests for repro.graph.export."""

from __future__ import annotations

import json

from repro.graph.builder import build_decode_graph
from repro.graph.export import to_dot, to_json
from repro.graph.fusion import fuse_graph


class TestDotExport:
    def test_contains_all_operators(self, micro_config):
        g = build_decode_graph(micro_config, 1)
        dot = to_dot(g)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        for op in g:
            assert f'"{op.name}"' in dot

    def test_edges_follow_dependencies(self, micro_config):
        g = build_decode_graph(micro_config, 1)
        dot = to_dot(g)
        assert '"L0.attn_norm" -> "L0.wq"' in dot

    def test_fused_nodes_marked(self, micro_config):
        g = fuse_graph(build_decode_graph(micro_config, 1))
        dot = to_dot(g)
        assert "doubleoctagon" in dot

    def test_tensor_nodes_optional(self, micro_config):
        g = build_decode_graph(micro_config, 1)
        assert '"t:logits"' not in to_dot(g, include_tensors=False)
        assert '"t:logits"' in to_dot(g, include_tensors=True)


class TestJsonExport:
    def test_payload_matches_graph(self, micro_config):
        g = build_decode_graph(micro_config, 2)
        payload = json.loads(to_json(g))
        operators = payload["operators"]
        assert len(operators) == len(g)
        assert len(payload["tensors"]) == len(g.tensors)
        assert sum(op["flops"] for op in operators) == g.total_flops()
        assert sum(op["weight_bytes"] for op in operators) == g.total_weight_bytes()
        assert any(op["kind"] == "matmul" for op in operators)

    def test_fused_members_listed(self, micro_config):
        g = fuse_graph(build_decode_graph(micro_config, 1))
        payload = json.loads(to_json(g))
        fused_ops = [op for op in payload["operators"] if op["kind"] == "fused"]
        assert fused_ops
        assert all(op["fused_members"] for op in fused_ops)
