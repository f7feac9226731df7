"""Functional execution of decode-step graphs.

The cycle-level simulation answers "how long does a step take"; the
functional executor answers "what values does it produce".  It computes
a batched step with NumPy against the model's weights and the slots' KV
caches, which gives two guarantees the tests rely on:

* the graph IR (and therefore the fusion pass) is semantically faithful:
  executing the *fused* graph yields exactly the same logits as the
  unfused graph and as :class:`repro.llama.model.LlamaModel`;
* the simulated accelerator generates the same tokens as the reference
  engine, because the accelerator session uses this executor for values
  and the pipeline simulator only for timing.

A graph is compiled once into a flat *value program*: FUSED members
inlined, weights resolved to their float32 arrays (graph tensors are
named ``L{i}.<tensor>``, checkpoints ``layers.{i}.<tensor>``; under a
quantised datapath the weights are the dequantised ones), ``KV_APPEND``
layers read off, and the program split where the last decoder block
writes :func:`~repro.graph.builder.hidden_state`: the *body* before, the
final norm and classifier (the *tail*) after.  A step then runs
**op-major**, the order :mod:`repro.accel.batching` prices: each
operator over all the step's slots, activations stacked as one
``[n_slots, width]`` array, so a weight matrix is cache-hot for every
row after the first.  ``MATMUL`` stays one GEMV per row — the BLAS call
a lone slot makes, so a row's bits do not depend on its batch; the
row-wise operators are one NumPy call for all rows; ``KV_APPEND``,
attention and ``SOFTMAX`` run per slot against the slot's own cache, all
heads in one batched ``matmul``.  The body runs over every slot, the
tail over the slots that want logits; a slot that does not yields its
hidden state.  The order is safe because slots of different caches are
independent and slots of one cache come in increasing position: layer
*l*'s ``KV_APPEND`` sweep writes row *p* before any slot's attention at
layer *l* reads it, and each slot's window stops at its own ``pos + 1``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..llama.config import LlamaConfig
from ..llama.model import apply_rope, rmsnorm, rope_frequencies, silu, softmax
from ..graph.builder import hidden_state
from ..graph.graph import Graph
from ..graph.ops import OpKind
from .batching import BatchSlot

__all__ = ["GraphExecutor"]


class _Instruction(NamedTuple):
    kind: OpKind
    layer: int
    outputs: Tuple[str, ...]
    inputs: Tuple[str, ...]
    #: Per input: its float32 array if it is a weight, None if it is an
    #: activation (looked up by name among the step's stacked values).
    weights: Tuple[Optional[np.ndarray], ...]


class _Program(NamedTuple):
    graph: Graph  # pinned, so its id() is not reused while the entry lives
    instructions: List[_Instruction]
    #: How many instructions the body is: up to the hidden state.
    body: int


def _graph_to_checkpoint_name(name: str) -> str:
    """Translate a graph weight-tensor name to the checkpoint key."""
    if name == "tok_embeddings.weight(classifier)":
        return "tok_embeddings.weight"
    if name.startswith("L") and "." in name:
        prefix, rest = name.split(".", 1)
        if prefix[1:].isdigit():
            return f"layers.{prefix[1:]}.{rest}"
    return name


class GraphExecutor:
    """Computes batched steps of decode-step graphs over model weights."""

    def __init__(self, config: LlamaConfig, weights: Mapping[str, np.ndarray]) -> None:
        self.config = config
        self.weights = weights
        self._rope = rope_frequencies(config.head_dim, config.max_seq_len,
                                      config.rope_theta)
        #: The value program of each graph run so far, by id(graph).
        self._programs: Dict[int, _Program] = {}

    # ------------------------------------------------------------------
    def _weight(self, graph_name: str) -> np.ndarray:
        key = _graph_to_checkpoint_name(graph_name)
        try:
            return np.asarray(self.weights[key], dtype=np.float32)
        except KeyError:
            raise KeyError(
                f"graph weight {graph_name!r} (checkpoint key {key!r}) not found"
            ) from None

    def _compile(self, graph: Graph) -> _Program:
        """Flatten a step graph (once) into the program a step runs."""
        hidden = hidden_state(self.config)
        instructions, produced, body = [], {"token"}, None
        for op in graph.topological_order():
            for member in (op.fused_ops if op.kind is OpKind.FUSED else [op]):
                instructions.append(_Instruction(
                    member.kind, int(member.attributes.get("layer", -1)),
                    tuple(member.outputs), tuple(member.inputs),
                    tuple(None if name in produced else self._weight(name)
                          for name in member.inputs)))
                produced.update(member.outputs)
                if hidden in member.outputs:
                    body = len(instructions)
        if body is None or "logits" not in graph.graph_outputs():
            raise RuntimeError(f"graph {graph.name!r} is not a decode step: it "
                               f"does not produce {hidden!r} and 'logits'")
        program = self._programs[id(graph)] = _Program(graph, instructions, body)
        return program

    # ------------------------------------------------------------------
    def execute_step(self, graph: Graph, slots: Sequence[BatchSlot]) -> List[np.ndarray]:
        """Run every slot through the step ``graph``, op-major; one
        result array per slot: the logits where ``need_logits`` is on,
        the hidden state otherwise.  Every slot is validated before the
        first cache row is written, so a rejected step changes nothing:
        slots sharing a cache must come in strictly increasing position.

        Nothing read from the graph depends on the context it was built
        for — the attention window is ``pos + 1`` — so one graph serves
        every position.  A graph must not change once executed: its
        program is compiled on the first run only.
        """
        latest: Dict[int, int] = {}
        for slot in slots:
            if not 0 <= slot.token < self.config.vocab_size:
                raise IndexError(f"token {slot.token} outside the vocabulary")
            if slot.pos >= slot.cache.capacity:
                raise IndexError(
                    f"position {slot.pos} exceeds cache capacity {slot.cache.capacity}")
            if latest.get(id(slot.cache), -1) >= slot.pos:
                raise ValueError(
                    "slots sharing a KV cache must come in strictly increasing "
                    f"position, got {slot.pos} after {latest[id(slot.cache)]}")
            latest[id(slot.cache)] = slot.pos
        if not slots:
            return []
        program = self._programs.get(id(graph)) or self._compile(graph)
        body, hidden = program.body, hidden_state(self.config)
        values = {"token": np.array([slot.token for slot in slots], dtype=np.int64)}
        self._run(program.instructions[:body], values, slots)
        results: List[np.ndarray] = list(values[hidden])
        rows = [row for row, slot in enumerate(slots) if slot.need_logits]
        if not rows:
            return results
        if len(rows) < len(slots):
            # The tail reads nothing of the body but the hidden state.
            values, slots = {hidden: values[hidden][rows]}, [slots[row] for row in rows]
        self._run(program.instructions[body:], values, slots)
        for at, row in enumerate(rows):
            results[row] = values["logits"][at]
        return results

    # ------------------------------------------------------------------
    def _run(self, instructions: Sequence[_Instruction], values: Dict[str, object],
             slots: Sequence[BatchSlot]) -> None:
        """Run a stretch of a program over the stacked rows of ``slots``.

        ``values`` maps a tensor name to its ``[n_slots, width]`` array —
        or, for the per-slot KV windows, scores and probabilities, whose
        length differs from slot to slot, to a list with one array each.
        """
        cfg = self.config
        n, head_dim = len(slots), cfg.head_dim
        kv_heads, group = cfg.n_kv_heads, cfg.group_size
        angles = self._rope[[slot.pos for slot in slots]][:, None]
        scale = np.sqrt(np.float32(head_dim))
        for kind, layer, outputs, inputs, weights in instructions:
            args = [values[name] if weight is None else weight
                    for name, weight in zip(inputs, weights)]
            a, b = args[0], args[-1]  # every operator has one or two inputs
            if kind is OpKind.MATMUL:
                out = np.empty((n, b.shape[0]), dtype=np.float32)
                for row in range(n):  # the lone slot's GEMV, the matrix now hot
                    np.matmul(b, a[row], out=out[row])
            elif kind is OpKind.EMBED:
                out = b[a]
            elif kind is OpKind.RMSNORM:
                out = rmsnorm(a, b, cfg.norm_eps)
            elif kind is OpKind.ROPE:
                out = apply_rope(a.reshape(n, -1, head_dim), angles).reshape(a.shape)
            elif kind is OpKind.KV_APPEND:
                for row, slot in enumerate(slots):
                    slot.cache.append(layer, a[row], b[row], slot.pos)
                # Windows are read after every append of the sweep: rows
                # 0..pos of a cache are final by then.
                out = [slot.cache.keys(layer, slot.pos + 1) for slot in slots]
                values[outputs[1]] = [slot.cache.values(layer, slot.pos + 1)
                                      for slot in slots]
            elif kind is OpKind.ATTN_SCORE:
                # One GEMV per head, batched: query heads [kv, group]
                # against their KV head's [len, head_dim] keys.
                q = a.reshape(n, kv_heads, group, head_dim, 1)
                out = []
                for row, keys in enumerate(b):
                    keys = keys.reshape(-1, kv_heads, head_dim).transpose(1, 0, 2)
                    scores = np.matmul(keys[:, None], q[row])
                    scores /= scale
                    out.append(scores.reshape(cfg.n_heads, -1))
            elif kind is OpKind.SOFTMAX:
                out = [softmax(scores, axis=-1) for scores in a]
            elif kind is OpKind.ATTN_CONTEXT:
                out = np.empty((n, kv_heads, group, 1, head_dim), dtype=np.float32)
                for row, (probs, vals) in enumerate(zip(a, b)):
                    vals = vals.reshape(-1, kv_heads, head_dim).transpose(1, 0, 2)
                    np.matmul(probs.reshape(kv_heads, group, 1, -1), vals[:, None],
                              out=out[row])
                out = out.reshape(n, cfg.dim)
            elif kind is OpKind.SILU:
                out = silu(a)
            elif kind is OpKind.MUL:
                out = a * b
            elif kind is OpKind.ADD:
                out = a + b
            else:
                raise ValueError(f"cannot execute operator kind {kind}")
            values[outputs[0]] = out
