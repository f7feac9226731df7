"""Tests for repro.graph.graph."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.graph.graph import Graph, GraphValidationError
from repro.graph.ops import Operator, OpKind, TensorSpec


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


class TestStatistics:
    def test_total_flops_and_kinds(self):
        g = _chain_graph()
        assert g.total_flops() == 12
        assert Counter(op.kind for op in g) == {OpKind.SILU: 3}
