"""Tests for repro.graph.graph."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.graph.builder import build_decode_graph
from repro.graph.fusion import fuse_graph
from repro.graph.graph import Graph, GraphValidationError
from repro.graph.ops import Operator, OpKind, TensorSpec
from repro.llama.config import preset


def _tensor(name, shape=(4,), **kw):
    return TensorSpec(name=name, shape=shape, **kw)


def _chain_graph() -> Graph:
    """a --op1--> b --op2--> c, with d as a second consumer of b."""
    g = Graph(name="chain")
    for n in ("a", "b", "c", "d"):
        g.add_tensor(_tensor(n))
    g.add_operator(Operator(name="op1", kind=OpKind.SILU, inputs=["a"], outputs=["b"], flops=4))
    g.add_operator(Operator(name="op2", kind=OpKind.SILU, inputs=["b"], outputs=["c"], flops=4))
    g.add_operator(Operator(name="op3", kind=OpKind.SILU, inputs=["b"], outputs=["d"], flops=4))
    return g


class TestConstruction:
    def test_add_tensor_idempotent_for_identical_spec(self):
        g = Graph()
        spec = _tensor("x")
        g.add_tensor(spec)
        g.add_tensor(_tensor("x"))
        assert len(g.tensors) == 1

    def test_conflicting_tensor_spec_rejected(self):
        g = Graph()
        g.add_tensor(_tensor("x", shape=(4,)))
        with pytest.raises(GraphValidationError):
            g.add_tensor(_tensor("x", shape=(8,)))

    def test_duplicate_operator_rejected(self):
        g = _chain_graph()
        with pytest.raises(GraphValidationError, match="duplicate"):
            g.add_operator(Operator(name="op1", kind=OpKind.ADD,
                                    inputs=["a"], outputs=["c"]))

    def test_unknown_tensor_rejected(self):
        g = Graph()
        g.add_tensor(_tensor("a"))
        with pytest.raises(GraphValidationError, match="unknown tensor"):
            g.add_operator(Operator(name="op", kind=OpKind.ADD,
                                    inputs=["a"], outputs=["missing"]))

    def test_double_producer_rejected(self):
        g = _chain_graph()
        with pytest.raises(GraphValidationError, match="already produced"):
            g.add_operator(Operator(name="op4", kind=OpKind.ADD,
                                    inputs=["a"], outputs=["b"]))

    def test_lookup_errors(self):
        g = _chain_graph()
        with pytest.raises(KeyError):
            g.tensor("nope")


class TestQueries:
    def test_producer_and_consumers(self):
        g = _chain_graph()
        assert g.producer_of("b").name == "op1"
        assert g.producer_of("a") is None
        assert {op.name for op in g.consumers_of("b")} == {"op2", "op3"}

    def test_successors_predecessors(self):
        g = _chain_graph()
        op1, op2 = (o for o in g if o.name in ("op1", "op2"))
        assert {o.name for o in g.successors(op1)} == {"op2", "op3"}
        assert [o.name for o in g.predecessors(op2)] == ["op1"]

    def test_graph_outputs(self):
        g = _chain_graph()
        assert set(g.graph_outputs()) == {"c", "d"}

    def test_iteration_and_len(self):
        g = _chain_graph()
        assert len(g) == 3
        assert [op.name for op in g] == ["op1", "op2", "op3"]


class TestTopologicalOrder:
    def test_order_respects_dependencies(self):
        g = _chain_graph()
        order = [op.name for op in g.topological_order()]
        assert order.index("op1") < order.index("op2")
        assert order.index("op1") < order.index("op3")

    def test_cycle_detected(self):
        g = Graph()
        for n in ("a", "b"):
            g.add_tensor(_tensor(n))
        g.add_operator(Operator(name="op1", kind=OpKind.ADD, inputs=["b"], outputs=["a"]))
        g.add_operator(Operator(name="op2", kind=OpKind.ADD, inputs=["a"], outputs=["b"]))
        with pytest.raises(GraphValidationError, match="cycle"):
            g.topological_order()

    def test_validate_passes_on_wellformed_graph(self):
        _chain_graph().validate()

    @staticmethod
    def _fresh(g: Graph):
        """Kahn's order of ``g``'s structure, derived by a new graph."""
        return Graph(name=g.name, tensors=dict(g.tensors),
                     operators=dict(g.operators)).topological_order()

    @pytest.mark.parametrize("model", ["test-micro", "stories15M"])
    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_kept_order_is_a_fresh_one_after_every_operator(self, model, fused):
        """A builder graph rebuilt operator by operator, asked for its
        order after each: the kept order is the one a new graph derives,
        which is the insertion order."""
        built = build_decode_graph(preset(model), 9)
        if fused:
            built = fuse_graph(built)
        g = Graph(name=built.name, tensors=dict(built.tensors))
        for op in built:
            g.add_operator(op)
            order = g.topological_order()
            assert order == self._fresh(g) == list(g.operators.values())
            assert g.topological_order() == order

    def test_an_operator_added_before_its_producer_reorders(self):
        """The consumer enters first: the order kept for one operator is
        dropped when its producer enters."""
        g = Graph()
        for n in ("a", "b", "c"):
            g.add_tensor(_tensor(n))
        g.add_operator(Operator(name="late", kind=OpKind.SILU, inputs=["b"], outputs=["c"]))
        assert [op.name for op in g.topological_order()] == ["late"]
        g.add_operator(Operator(name="early", kind=OpKind.SILU, inputs=["a"], outputs=["b"]))
        assert [op.name for op in g.topological_order()] == ["early", "late"]
        assert g.topological_order() == self._fresh(g)

    def test_a_caller_gets_its_own_list(self):
        g = _chain_graph()
        order = g.topological_order()
        order.reverse()
        assert [op.name for op in g.topological_order()] == ["op1", "op2", "op3"]


class TestStatistics:
    def test_total_flops_and_kinds(self):
        g = _chain_graph()
        assert g.total_flops() == 12
        assert Counter(op.kind for op in g) == {OpKind.SILU: 3}
