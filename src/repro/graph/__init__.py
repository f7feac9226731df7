"""Operator-graph IR: Llama-2 decode graph, fusion pass, DOT/JSON export."""

from .builder import GraphBuilder, build_decode_graph
from .export import from_json_summary, to_dot, to_json
from .fusion import FusionResult, FusionRule, FusionStats, default_rules, fuse_graph
from .graph import Graph, GraphValidationError
from .ops import ComputeUnit, Operator, OpKind, TensorSpec

__all__ = [
    "GraphBuilder",
    "build_decode_graph",
    "from_json_summary",
    "to_dot",
    "to_json",
    "FusionResult",
    "FusionRule",
    "FusionStats",
    "default_rules",
    "fuse_graph",
    "Graph",
    "GraphValidationError",
    "ComputeUnit",
    "Operator",
    "OpKind",
    "TensorSpec",
]
