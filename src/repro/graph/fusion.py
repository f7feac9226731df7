"""Operator fusion pass (paper contribution 3: "Operators Fusion of Llama2").

Fusing adjacent operators into a single composite operator removes the
intermediate tensor between them: instead of writing the producer's output
to off-chip memory and reading it back for the consumer, the value stays
in on-chip registers/BRAM inside the fused region.  On the accelerator
this shows up as (a) fewer instructions, (b) less off-chip traffic and (c)
higher compute density per memory transaction — exactly the effects the
paper attributes to its fusion optimization.

The pass is rule-based: a :class:`FusionRule` names a linear chain of
operator kinds; :func:`fuse_graph` greedily collapses every occurrence of
each rule (longest rules first) where the chain is *exclusive* — every
intermediate tensor has exactly one consumer, so folding it away cannot
change any other operator's inputs.

The default rule set mirrors the fusions llama2-style accelerators apply:

* QKV projection + RoPE            (``matmul`` → ``rope``)
* attention core                   (``attn_score`` → ``softmax`` → ``attn_context``)
* SwiGLU                           (``silu`` → ``mul`` → ``matmul``)
* output projection + residual add (``matmul`` → ``add``)
* final norm + classifier          (``rmsnorm`` → ``matmul``)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .graph import Graph
from .ops import Operator, OpKind

__all__ = ["FusionRule", "default_rules", "fuse_graph"]


@dataclass(frozen=True)
class FusionRule:
    """A named linear pattern of operator kinds to collapse into one node."""

    name: str
    pattern: Tuple[OpKind, ...]

    def __post_init__(self) -> None:
        if len(self.pattern) < 2:
            raise ValueError("a fusion rule needs at least two operators")
        if OpKind.FUSED in self.pattern:
            raise ValueError("fusion rules cannot match already-fused operators")

    def __len__(self) -> int:
        return len(self.pattern)


def default_rules() -> List[FusionRule]:
    """The Llama-2 fusion rule set described in the module docstring."""
    return [
        FusionRule("attention-core",
                   (OpKind.ATTN_SCORE, OpKind.SOFTMAX, OpKind.ATTN_CONTEXT)),
        FusionRule("swiglu-down", (OpKind.SILU, OpKind.MUL, OpKind.MATMUL)),
        FusionRule("proj-residual", (OpKind.MATMUL, OpKind.ADD)),
        FusionRule("matmul-rope", (OpKind.MATMUL, OpKind.ROPE)),
        FusionRule("norm-classifier", (OpKind.RMSNORM, OpKind.MATMUL)),
    ]


def _match_chain(
    graph: Graph,
    start: Operator,
    rule: FusionRule,
    claimed: Set[str],
) -> Optional[List[Operator]]:
    """Try to match ``rule`` as a linear chain starting at ``start``.

    The chain is accepted only if every link tensor has exactly one
    consumer (the next chain member) and every member is still unclaimed.
    """
    if start.kind is not rule.pattern[0] or start.name in claimed:
        return None
    chain = [start]
    current = start
    for expected_kind in rule.pattern[1:]:
        if len(current.outputs) != 1:
            return None
        link = current.outputs[0]
        consumers = graph.consumers_of(link)
        if len(consumers) != 1:
            return None
        nxt = consumers[0]
        if nxt.kind is not expected_kind or nxt.name in claimed:
            return None
        chain.append(nxt)
        current = nxt
    return chain


def _fused_operator(graph: Graph, chain: List[Operator], rule: FusionRule) -> Tuple[Operator, List[str]]:
    """Build the composite operator for ``chain``.

    Returns the new operator and the list of internal tensors that the
    fusion eliminates (produced and consumed entirely inside the chain).
    """
    member_names = {op.name for op in chain}
    produced_inside = {t for op in chain for t in op.outputs}

    inputs: List[str] = []
    for op in chain:
        for t in op.inputs:
            if t not in produced_inside and t not in inputs:
                inputs.append(t)

    outputs: List[str] = []
    eliminated: List[str] = []
    for op in chain:
        for t in op.outputs:
            consumers = graph.consumers_of(t)
            external = [c for c in consumers if c.name not in member_names]
            is_graph_output = not consumers
            if external or is_graph_output:
                if t not in outputs:
                    outputs.append(t)
            else:
                eliminated.append(t)

    layer = chain[0].attributes.get("layer")
    fused = Operator(
        name="fused[" + "+".join(op.name for op in chain) + "]",
        kind=OpKind.FUSED,
        inputs=inputs,
        outputs=outputs,
        flops=0,
        weight_bytes=0,
        attributes={"rule": rule.name, **({"layer": layer} if layer is not None else {})},
        fused_ops=list(chain),
    )
    return fused, eliminated


def fuse_graph(
    graph: Graph,
    rules: Optional[Sequence[FusionRule]] = None,
) -> Graph:
    """Apply ``rules`` (default :func:`default_rules`) to ``graph``.

    Returns a new graph; the input graph is not modified.  Longer rules
    are tried first so, e.g., the three-operator attention fusion wins
    over any two-operator rule sharing a prefix.  Each fused operator
    names its rule in ``attributes["rule"]``, and the intermediate tensors
    it folds away are absent from the new graph's ``tensors``.
    """
    rules = list(rules) if rules is not None else default_rules()
    rules.sort(key=len, reverse=True)

    order = graph.topological_order()
    claimed: Set[str] = set()
    replacements: List[Tuple[List[Operator], Operator, List[str]]] = []
    eliminated_tensors: Set[str] = set()

    for op in order:
        if op.name in claimed:
            continue
        for rule in rules:
            chain = _match_chain(graph, op, rule, claimed)
            if chain is None:
                continue
            fused, eliminated = _fused_operator(graph, chain, rule)
            claimed.update(member.name for member in chain)
            replacements.append((chain, fused, eliminated))
            eliminated_tensors.update(eliminated)
            break

    # Build the rewritten graph.
    fused_graph = Graph(name=graph.name + "+fused")
    for tname, spec in graph.tensors.items():
        if tname in eliminated_tensors:
            continue
        fused_graph.add_tensor(spec)

    chain_to_fused = {}
    for chain, fused, _ in replacements:
        for member in chain:
            chain_to_fused[member.name] = fused

    emitted: Set[str] = set()
    for op in order:
        if op.name in chain_to_fused:
            fused = chain_to_fused[op.name]
            if fused.name not in emitted:
                fused_graph.add_operator(fused)
                emitted.add(fused.name)
        else:
            fused_graph.add_operator(op)

    fused_graph.validate()
    return fused_graph
