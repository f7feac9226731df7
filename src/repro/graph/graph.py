"""Dataflow-graph container for the operator IR.

A :class:`Graph` holds tensors and operators, maintains producer/consumer
indices, validates well-formedness (single producer per tensor, no
dangling references, acyclicity) and offers the traversal operations the
scheduler, fusion pass and compiler need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .ops import Operator, TensorSpec

__all__ = ["Graph", "GraphValidationError"]


class GraphValidationError(ValueError):
    """Raised when a graph is structurally invalid."""


@dataclass
class Graph:
    """A directed acyclic dataflow graph of :class:`Operator` nodes.

    Operators are kept in insertion order, which for graphs produced by
    the builder (fused or not) is already a valid topological order.
    :meth:`topological_order` derives Kahn's order, and with it the
    graph's acyclicity, once per structure: the order is kept with the
    producer/consumer indices, and :meth:`add_operator`, the one way an
    operator enters the graph, drops it.  Validating, fusing and lowering
    one graph therefore order it once.
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
    # Kahn's order of the operators, once derived; None until then
    _order: Optional[Tuple[Operator, ...]] = field(
        default=None, init=False, repr=False, compare=False)

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
        self._order = None
        return op

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators.values())

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

    def graph_outputs(self) -> List[str]:
        """Tensors produced but never consumed inside the graph."""
        consumed = {t for op in self.operators.values() for t in op.inputs}
        outputs: List[str] = []
        for op in self.operators.values():
            for t in op.outputs:
                if t not in consumed and t not in outputs:
                    outputs.append(t)
        return outputs

    # ------------------------------------------------------------------
    # Validation / ordering
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Operator]:
        """Return a topological ordering (Kahn's algorithm), as a new list:
        derived on the first call after the graph last gained an operator,
        and kept until it gains another.

        Raises
        ------
        GraphValidationError
            If the graph contains a cycle.
        """
        if self._order is None:
            self._order = self._kahn()
        return list(self._order)

    def _kahn(self) -> Tuple[Operator, ...]:
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
        return tuple(order)

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
