"""Dataflow-graph container for the operator IR.

A :class:`Graph` holds tensors and operators, maintains producer/consumer
indices, validates well-formedness (single producer per tensor, no
dangling references, acyclicity) and offers the traversal operations the
scheduler, fusion pass and compiler need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from .ops import Operator, OpKind, TensorSpec

__all__ = ["Graph", "GraphValidationError"]


class GraphValidationError(ValueError):
    """Raised when a graph is structurally invalid."""


@dataclass
class Graph:
    """A directed acyclic dataflow graph of :class:`Operator` nodes.

    Operators are kept in insertion order, which for graphs produced by
    the builder is already a valid topological order; :meth:`topological_order`
    recomputes one from scratch and is used to validate that property.
    """

    name: str = "graph"
    tensors: Dict[str, TensorSpec] = field(default_factory=dict)
    operators: Dict[str, Operator] = field(default_factory=dict)
    # tensor -> its producer / its consumers in insertion order; written
    # only where ``operators`` is, so the two never disagree
    _producers: Dict[str, Operator] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _consumers: Dict[str, List[Operator]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for op in self.operators.values():
            self._index(op)

    def _index(self, op: Operator) -> None:
        for t in op.outputs:
            self._producers.setdefault(t, op)
        for t in dict.fromkeys(op.inputs):
            self._consumers.setdefault(t, []).append(op)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        """Register a tensor; re-registering an identical spec is a no-op."""
        existing = self.tensors.get(spec.name)
        if existing is not None:
            if existing != spec:
                raise GraphValidationError(
                    f"tensor {spec.name!r} already registered with a different spec"
                )
            return existing
        self.tensors[spec.name] = spec
        return spec

    def add_operator(self, op: Operator) -> Operator:
        """Append an operator node, checking name uniqueness and tensor refs."""
        if op.name in self.operators:
            raise GraphValidationError(f"duplicate operator name {op.name!r}")
        for t in list(op.inputs) + list(op.outputs):
            if t not in self.tensors:
                raise GraphValidationError(
                    f"operator {op.name!r} references unknown tensor {t!r}"
                )
        for t in op.outputs:
            producer = self.producer_of(t)
            if producer is not None:
                raise GraphValidationError(
                    f"tensor {t!r} already produced by {producer.name!r}"
                )
        self.operators[op.name] = op
        self._index(op)
        return op

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators.values())

    def op(self, name: str) -> Operator:
        """Look up an operator by name."""
        try:
            return self.operators[name]
        except KeyError:
            raise KeyError(f"no operator named {name!r}") from None

    def tensor(self, name: str) -> TensorSpec:
        """Look up a tensor by name."""
        try:
            return self.tensors[name]
        except KeyError:
            raise KeyError(f"no tensor named {name!r}") from None

    def producer_of(self, tensor: str) -> Optional[Operator]:
        """Return the operator producing ``tensor`` (None for graph inputs)."""
        return self._producers.get(tensor)

    def consumers_of(self, tensor: str) -> List[Operator]:
        """Return all operators that read ``tensor``."""
        return list(self._consumers.get(tensor, ()))

    def successors(self, op: Operator) -> List[Operator]:
        """Operators that consume any output of ``op``."""
        out: List[Operator] = []
        seen: Set[str] = set()
        for t in op.outputs:
            for consumer in self.consumers_of(t):
                if consumer.name not in seen:
                    seen.add(consumer.name)
                    out.append(consumer)
        return out

    def predecessors(self, op: Operator) -> List[Operator]:
        """Operators that produce any input of ``op``."""
        out: List[Operator] = []
        seen: Set[str] = set()
        for t in op.inputs:
            producer = self.producer_of(t)
            if producer is not None and producer.name not in seen:
                seen.add(producer.name)
                out.append(producer)
        return out

    def graph_inputs(self) -> List[str]:
        """Tensors consumed but never produced inside the graph."""
        produced = {t for op in self.operators.values() for t in op.outputs}
        inputs: List[str] = []
        for op in self.operators.values():
            for t in op.inputs:
                if t not in produced and t not in inputs:
                    inputs.append(t)
        return inputs

    def graph_outputs(self) -> List[str]:
        """Tensors produced but never consumed inside the graph."""
        consumed = {t for op in self.operators.values() for t in op.inputs}
        outputs: List[str] = []
        for op in self.operators.values():
            for t in op.outputs:
                if t not in consumed and t not in outputs:
                    outputs.append(t)
        return outputs

    def intermediate_tensors(self) -> List[str]:
        """Tensors both produced and consumed within the graph."""
        produced = {t for op in self.operators.values() for t in op.outputs}
        consumed = {t for op in self.operators.values() for t in op.inputs}
        return [t for t in self.tensors if t in produced and t in consumed]

    # ------------------------------------------------------------------
    # Validation / ordering
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Operator]:
        """Return a topological ordering (Kahn's algorithm).

        Raises
        ------
        GraphValidationError
            If the graph contains a cycle.
        """
        indegree: Dict[str, int] = {}
        for op in self.operators.values():
            indegree[op.name] = len(self.predecessors(op))
        ready = [op for op in self.operators.values() if indegree[op.name] == 0]
        order: List[Operator] = []
        while ready:
            op = ready.pop(0)
            order.append(op)
            for succ in self.successors(op):
                indegree[succ.name] -= 1
                if indegree[succ.name] == 0:
                    ready.append(succ)
        if len(order) != len(self.operators):
            raise GraphValidationError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Check structural invariants; raises on violation."""
        for op in self.operators.values():
            for t in list(op.inputs) + list(op.outputs):
                if t not in self.tensors:
                    raise GraphValidationError(
                        f"operator {op.name!r} references unknown tensor {t!r}"
                    )
        producers: Dict[str, str] = {}
        for op in self.operators.values():
            for t in op.outputs:
                if t in producers:
                    raise GraphValidationError(
                        f"tensor {t!r} produced by both {producers[t]!r} and {op.name!r}"
                    )
                producers[t] = op.name
        self.topological_order()

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def total_flops(self) -> int:
        """Sum of operator FLOPs (fused members included)."""
        return sum(op.total_flops() for op in self.operators.values())

    def total_weight_bytes(self) -> int:
        """Total parameter bytes streamed by one execution of the graph."""
        return sum(op.total_weight_bytes() for op in self.operators.values())

    def intermediate_activation_bytes(self) -> int:
        """Bytes of intermediate (producer->consumer) activation traffic.

        This is the quantity the operator-fusion optimization removes: each
        intermediate tensor that stays off-chip costs a write plus a read.
        """
        return sum(
            self.tensors[t].nbytes
            for t in self.intermediate_tensors()
            if self.tensors[t].resident == "offchip"
        )

    def count_kinds(self) -> Dict[OpKind, int]:
        """Histogram of operator kinds."""
        hist: Dict[OpKind, int] = {}
        for op in self.operators.values():
            hist[op.kind] = hist.get(op.kind, 0) + 1
        return hist

    def summary(self) -> str:
        """Human-readable one-paragraph description (for reports/examples)."""
        kinds = ", ".join(
            f"{k.value}:{v}" for k, v in sorted(self.count_kinds().items(), key=lambda kv: kv[0].value)
        )
        return (
            f"Graph {self.name!r}: {len(self.operators)} ops ({kinds}), "
            f"{len(self.tensors)} tensors, {self.total_flops():,} FLOPs, "
            f"{self.total_weight_bytes():,} weight bytes, "
            f"{self.intermediate_activation_bytes():,} intermediate activation bytes"
        )
