"""The recursive per-operator interpreter token values came from until
PR 23 — now the *oracle* the op-major step is compared against.

``repro.accel.executor.GraphExecutor`` compiles a value graph into a flat
program and runs a whole step operator by operator over stacked
activations.  This module keeps what that replaced, verbatim from
``src/repro/accel/executor.py`` at the parent commit: one slot at a
time, a recursive walk over FUSED members, a name translation per weight
look-up and a Python loop per attention head.  It is a reference
implementation, not production code: :class:`SlotMajorExecutor` has the
old ``GraphExecutor`` interface, and ``test_step_values.py`` requires the
two to agree bit for bit on every output and every cache row.  Its cache
rows are written and read through ``kv_write_oracle``'s per-row path, so
the step's batched KV traffic is compared against that too.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.ops import Operator, OpKind
from repro.llama.config import LlamaConfig
from repro.llama.kv_cache import KVCache
from repro.llama.model import apply_rope, rmsnorm, rope_frequencies, silu, softmax

from ..kvpool import kv_write_oracle

__all__ = ["SlotMajorExecutor"]


def _graph_to_checkpoint_name(name: str) -> str:
    """Translate a graph weight-tensor name to the checkpoint key."""
    if name == "tok_embeddings.weight(classifier)":
        return "tok_embeddings.weight"
    if name.startswith("L") and "." in name:
        prefix, rest = name.split(".", 1)
        if prefix[1:].isdigit():
            return f"layers.{prefix[1:]}.{rest}"
    return name


class SlotMajorExecutor:
    """Interprets decode-step graphs over model weights and a KV cache."""

    def __init__(
        self,
        config: LlamaConfig,
        weights: Mapping[str, np.ndarray],
    ) -> None:
        self.config = config
        self.weights = weights
        self._rope = rope_frequencies(config.head_dim, config.max_seq_len,
                                      config.rope_theta)
        # Execution order and result tensor of each graph run so far, by
        # id(graph); an entry holds its graph so the id is not reused.
        self._plans: Dict[int, Tuple[Graph, List[Operator], str]] = {}

    # ------------------------------------------------------------------
    def _weight(self, graph_name: str) -> np.ndarray:
        key = _graph_to_checkpoint_name(graph_name)
        try:
            return np.asarray(self.weights[key], dtype=np.float32)
        except KeyError:
            raise KeyError(
                f"graph weight {graph_name!r} (checkpoint key {key!r}) not found"
            ) from None

    # ------------------------------------------------------------------
    def _plan(self, graph: Graph) -> Tuple[Graph, List[Operator], str]:
        """Derive (once) the order a graph executes in and its result."""
        outputs = graph.graph_outputs()
        if "logits" not in outputs and len(outputs) != 1:
            raise RuntimeError("graph did not produce a 'logits' tensor")
        plan = self._plans[id(graph)] = (
            graph, graph.topological_order(),
            "logits" if "logits" in outputs else outputs[0])
        return plan

    def execute(
        self,
        graph: Graph,
        token: int,
        pos: int,
        cache: KVCache,
    ) -> np.ndarray:
        """Run one decode step at ``pos`` and return the logits vector."""
        if not 0 <= token < self.config.vocab_size:
            raise IndexError(f"token {token} outside the vocabulary")
        if pos >= cache.capacity:
            raise IndexError(f"position {pos} exceeds cache capacity {cache.capacity}")
        _, order, result = self._plans.get(id(graph)) or self._plan(graph)
        values: Dict[str, np.ndarray] = {"token": np.array([token], dtype=np.int64)}
        for op in order:
            self._execute_op(op, values, token, pos, cache)
        return values[result]

    # ------------------------------------------------------------------
    def _execute_op(
        self,
        op: Operator,
        values: Dict[str, np.ndarray],
        token: int,
        pos: int,
        cache: KVCache,
    ) -> None:
        if op.kind is OpKind.FUSED:
            for member in op.fused_ops:
                self._execute_op(member, values, token, pos, cache)
            return

        cfg = self.config

        def value_of(name: str) -> np.ndarray:
            if name in values:
                return values[name]
            return self._weight(name)

        if op.kind is OpKind.EMBED:
            table = self._weight(op.inputs[1])
            values[op.outputs[0]] = np.array(table[token], dtype=np.float32)
            return

        if op.kind is OpKind.RMSNORM:
            x = value_of(op.inputs[0])
            w = value_of(op.inputs[1])
            values[op.outputs[0]] = rmsnorm(x, w, cfg.norm_eps)
            return

        if op.kind is OpKind.MATMUL:
            x = value_of(op.inputs[0])
            w = value_of(op.inputs[1])
            values[op.outputs[0]] = w @ x
            return

        if op.kind is OpKind.ROPE:
            x = value_of(op.inputs[0])
            angles = self._rope[pos]
            rotated = apply_rope(x.reshape(-1, cfg.head_dim), angles)
            values[op.outputs[0]] = rotated.reshape(x.shape)
            return

        if op.kind is OpKind.KV_APPEND:
            layer = int(op.attributes["layer"])
            attn_len = pos + 1
            k = value_of(op.inputs[0])
            v = value_of(op.inputs[1])
            kv_write_oracle.append(cache, layer, k, v, pos)
            values[op.outputs[0]] = kv_write_oracle.keys(cache, layer, attn_len)
            values[op.outputs[1]] = kv_write_oracle.values(cache, layer, attn_len)
            return

        if op.kind is OpKind.ATTN_SCORE:
            q = value_of(op.inputs[0]).reshape(cfg.n_heads, cfg.head_dim)
            keys = value_of(op.inputs[1]).reshape(-1, cfg.n_kv_heads, cfg.head_dim)
            attn_len = keys.shape[0]
            scores = np.empty((cfg.n_heads, attn_len), dtype=np.float32)
            for h in range(cfg.n_heads):
                kv_head = h // cfg.group_size
                scores[h] = keys[:, kv_head, :] @ q[h] / np.sqrt(np.float32(cfg.head_dim))
            values[op.outputs[0]] = scores
            return

        if op.kind is OpKind.SOFTMAX:
            values[op.outputs[0]] = softmax(value_of(op.inputs[0]), axis=-1)
            return

        if op.kind is OpKind.ATTN_CONTEXT:
            probs = value_of(op.inputs[0])
            vals = value_of(op.inputs[1]).reshape(-1, cfg.n_kv_heads, cfg.head_dim)
            out = np.empty((cfg.n_heads, cfg.head_dim), dtype=np.float32)
            for h in range(cfg.n_heads):
                kv_head = h // cfg.group_size
                out[h] = probs[h] @ vals[:, kv_head, :]
            values[op.outputs[0]] = out.reshape(cfg.dim)
            return

        if op.kind is OpKind.SILU:
            values[op.outputs[0]] = silu(value_of(op.inputs[0]))
            return

        if op.kind is OpKind.MUL:
            values[op.outputs[0]] = value_of(op.inputs[0]) * value_of(op.inputs[1])
            return

        if op.kind is OpKind.ADD:
            values[op.outputs[0]] = value_of(op.inputs[0]) + value_of(op.inputs[1])
            return

        raise ValueError(f"cannot execute operator kind {op.kind}")
