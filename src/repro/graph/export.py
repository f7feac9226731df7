"""Graph export: Graphviz DOT and JSON serialisation of decode graphs.

Useful for inspecting what the fusion pass did to a decode step (the DOT
rendering groups fused regions) and for shipping compiled graphs to
external tooling.  Export is text-only — no Graphviz dependency is
required to produce the files.
"""

from __future__ import annotations

import json
from typing import Dict

from .graph import Graph
from .ops import ComputeUnit, OpKind

__all__ = ["to_dot", "to_json"]

_UNIT_COLORS = {
    ComputeUnit.MPE: "lightblue",
    ComputeUnit.SFU: "lightyellow",
    ComputeUnit.DMA: "lightgrey",
}


def _dot_escape(name: str) -> str:
    return name.replace('"', r"\"")


def to_dot(graph: Graph, include_tensors: bool = False) -> str:
    """Render ``graph`` as a Graphviz DOT digraph.

    Operator nodes are coloured by compute unit; fused operators are drawn
    as double octagons.  When ``include_tensors`` is true, tensors become
    explicit nodes; otherwise edges connect producer to consumer directly.
    """
    lines = [f'digraph "{_dot_escape(graph.name)}" {{', "  rankdir=TB;"]
    for op in graph:
        color = _UNIT_COLORS.get(op.unit, "white")
        shape = "doubleoctagon" if op.kind is OpKind.FUSED else "box"
        label = f"{op.name}\\n{op.kind.value}"
        lines.append(
            f'  "{_dot_escape(op.name)}" [shape={shape}, style=filled, '
            f'fillcolor={color}, label="{_dot_escape(label)}"];'
        )
    if include_tensors:
        for tname, spec in graph.tensors.items():
            shape = "ellipse" if not spec.is_weight else "note"
            lines.append(
                f'  "t:{_dot_escape(tname)}" [shape={shape}, fontsize=9, '
                f'label="{_dot_escape(tname)}\\n{list(spec.shape)}"];'
            )
        for op in graph:
            for t in op.inputs:
                lines.append(f'  "t:{_dot_escape(t)}" -> "{_dot_escape(op.name)}";')
            for t in op.outputs:
                lines.append(f'  "{_dot_escape(op.name)}" -> "t:{_dot_escape(t)}";')
    else:
        for op in graph:
            for succ in graph.successors(op):
                lines.append(
                    f'  "{_dot_escape(op.name)}" -> "{_dot_escape(succ.name)}";'
                )
    lines.append("}")
    return "\n".join(lines)


def to_json(graph: Graph) -> str:
    """Serialise the graph structure and cost annotations to JSON."""
    payload: Dict[str, object] = {
        "name": graph.name,
        "tensors": [
            {
                "name": spec.name,
                "shape": list(spec.shape),
                "dtype_bytes": spec.dtype_bytes,
                "resident": spec.resident,
                "is_weight": spec.is_weight,
            }
            for spec in graph.tensors.values()
        ],
        "operators": [
            {
                "name": op.name,
                "kind": op.kind.value,
                "unit": op.unit.value,
                "inputs": list(op.inputs),
                "outputs": list(op.outputs),
                "flops": op.total_flops(),
                "weight_bytes": op.total_weight_bytes(),
                "fused_members": [m.name for m in op.fused_ops],
            }
            for op in graph
        ],
    }
    return json.dumps(payload, indent=2)
