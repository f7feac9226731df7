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
``[n_slots, width]`` array.  The row-wise operators are one NumPy call
for all rows.  ``KV_APPEND`` is array operations too: before the body
runs, a :class:`~repro.llama.kv_cache.KVStep` makes every slot's row
writable (blocks attached, shared blocks copied) and resolves its window
to storage rows, so a rejected step writes nothing; each layer is then
one fake-quant of every slot's key and value rows, and per KV storage
one scatter and one gather cut into the slots' windows (a private
cache's windows are views of its rows).  Attention and
``SOFTMAX`` run per slot, all heads in one batched ``matmul``: padding
the windows to one length would change the reduction order, and so the
bits.  The body runs over every slot, the tail over the slots that want
logits; a slot that does not yields its hidden state.  The order is safe
because slots of different caches are independent and slots of one
cache come in increasing position: layer *l*'s scatter writes row *p*
before its gather reads any window, and each slot's window stops at its
own ``pos + 1``.

``MATMUL`` is weight-stationary, as the accelerator is.  The program
holds each weight matrix cut into row blocks of at most 512 KiB, every
block but the last a whole multiple of 64 rows (and never a last block
of one row, which NumPy would compute as a dot product).  A step applies
one block to every row, one GEMV per row and block, before it reads the
next, so the block stays in a 2 MiB L2 for rows 2..n; the stories15M
classifier (32000 x 288, 36.9 MB) would otherwise stream from memory
once per logits row.  There is one path: a matrix within the budget is
one block, and a lone slot makes the calls every row of a batch makes,
so a row's bits do not depend on its batch, at any BLAS thread count.

The cuts rely on OpenBLAS's sgemv kernels computing output rows in
fours: cut at a multiple of 4, a row's bits are those of the
whole-matrix GEMV ``W @ x`` — when BLAS runs on one thread.  A threaded
BLAS splits a whole-matrix GEMV between threads at row counts that need
not be multiples of 4, so the whole-matrix result itself varies with the
thread count at odd row counts (with two threads, 32001 x 288,
30001 x 64 and 5003 x 176 differ from one thread).  Values are therefore
equal across batch compositions at any thread count, and equal to a
single-thread whole-matrix GEMV only with BLAS pinned to one thread.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..llama.config import LlamaConfig
from ..llama.kv_cache import KVStep
from ..llama.model import apply_rope, rmsnorm, rope_frequencies, silu, softmax
from ..graph.builder import hidden_state
from ..graph.graph import Graph
from ..graph.ops import OpKind
from .batching import BatchSlot

__all__ = ["GraphExecutor"]


#: The most bytes of a weight matrix ``MATMUL`` applies to every slot row
#: before it reads the next rows, so the block stays in a 2 MiB L2 while
#: rows 2..n use it.  Swept on the stories15M classifier (32000 x 288) with
#: one thread of OpenBLAS 0.3.31's Haswell sgemv, 2 MiB of L2 a core:
#: streamed from DRAM, 4 rows take 14.95 ms whole, 8.08 ms in 1024-row
#: blocks, 6.59 ms in 512-row and 6.47 ms in 384-row ones, and 7 rows
#: 19.3 -> 9.2 ms; resident in a 300 MiB L3, 4 rows take 6.5 ms whole,
#: 4.3 ms in 1 MiB blocks, 4.7 ms in 512 KiB and 7.3 ms in 256 KiB.  A lone
#: row is unchanged.  Every matrix is cut, the 885 KB FFN ones too: keeping
#: a matrix whole while it fits 1 MiB served no faster.
_BLOCK_BYTES = 512 * 1024
#: Every block but the last is a whole multiple of this many rows.  The
#: sgemv kernels compute output rows in fours, so a cut at a multiple of
#: 4 leaves every row's bits those of the whole-matrix GEMV.
_BLOCK_ROWS = 64


class _Instruction(NamedTuple):
    kind: OpKind
    layer: int
    outputs: Tuple[str, ...]
    inputs: Tuple[str, ...]
    #: Per input: its float32 array if it is a weight, None if it is an
    #: activation (looked up by name among the step's stacked values).
    weights: Tuple[Optional[np.ndarray], ...]
    #: A ``MATMUL``'s weight as :func:`_row_blocks`; empty otherwise.
    blocks: Tuple[Tuple[int, np.ndarray], ...]


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


def _row_blocks(matrix: np.ndarray) -> Tuple[Tuple[int, np.ndarray], ...]:
    """``matrix`` cut into consecutive views of at most ``_BLOCK_BYTES``
    (never under ``_BLOCK_ROWS`` rows), each with its first row index.

    NumPy computes a one-row matrix times a vector as a dot product, whose
    bits differ from the GEMV's, so a last block of one row takes
    ``_BLOCK_ROWS`` rows from the block before it."""
    rows = max(1, _BLOCK_BYTES // (_BLOCK_ROWS * matrix[0].nbytes)) * _BLOCK_ROWS
    starts = list(range(0, len(matrix), rows))
    if len(starts) > 1 and starts[-1] == len(matrix) - 1:
        starts[-1] -= _BLOCK_ROWS
        if starts[-1] == starts[-2]:  # blocks of _BLOCK_ROWS: merge the last two
            del starts[-1]
    return tuple((lo, matrix[lo:hi])
                 for lo, hi in zip(starts, starts[1:] + [len(matrix)]))


def _matmul(blocks: Sequence[Tuple[int, np.ndarray]], a: np.ndarray) -> np.ndarray:
    """Every row of ``a`` times the matrix ``blocks`` cut: one GEMV per row
    and block, a block applied to every row before the next is read."""
    out = np.empty((len(a), blocks[-1][0] + len(blocks[-1][1])), dtype=np.float32)
    for lo, block in blocks:
        for row in range(len(a)):
            np.matmul(block, a[row], out=out[row, lo:lo + len(block)])
    return out


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
                weights = tuple(None if name in produced else self._weight(name)
                                for name in member.inputs)
                instructions.append(_Instruction(
                    member.kind, int(member.attributes.get("layer", -1)),
                    tuple(member.outputs), tuple(member.inputs), weights,
                    _row_blocks(weights[-1]) if member.kind is OpKind.MATMUL else ()))
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
        the hidden state otherwise.  Slots sharing a cache must come in
        strictly increasing position.  Every slot is validated, and every
        slot's KV row made writable (blocks attached, shared blocks
        copied), before the first cache row is written: a step rejected
        there writes no row.  A step that fails later — a non-finite row
        under quantised KV — gives back what planning attached and
        copied.  Either way every block table, refcount and cache length
        is as it was; rows the body wrote before failing stay, in blocks
        given back or past each cache's length.

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
        kv = KVStep([slot.cache for slot in slots], [slot.pos for slot in slots])
        try:
            self._run(program.instructions[:body], values, slots, kv)
        except BaseException:
            kv.restore_blocks()
            raise
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
             slots: Sequence[BatchSlot], kv: Optional[KVStep] = None) -> None:
        """Run a stretch of a program over the stacked rows of ``slots``,
        ``kv`` their planned KV traffic (the tail has no ``KV_APPEND``).

        ``values`` maps a tensor name to its ``[n_slots, width]`` array —
        or, for the per-slot KV windows, scores and probabilities, whose
        length differs from slot to slot, to a list with one array each.
        """
        cfg = self.config
        n, head_dim = len(slots), cfg.head_dim
        kv_heads, group = cfg.n_kv_heads, cfg.group_size
        angles = self._rope[[slot.pos for slot in slots]][:, None]
        scale = np.sqrt(np.float32(head_dim))
        for kind, layer, outputs, inputs, weights, blocks in instructions:
            args = [values[name] if weight is None else weight
                    for name, weight in zip(inputs, weights)]
            a, b = args[0], args[-1]  # every operator has one or two inputs
            if kind is OpKind.MATMUL:
                out = _matmul(blocks, a)
            elif kind is OpKind.EMBED:
                out = b[a]
            elif kind is OpKind.RMSNORM:
                out = rmsnorm(a, b, cfg.norm_eps)
            elif kind is OpKind.ROPE:
                out = apply_rope(a.reshape(n, -1, head_dim), angles).reshape(a.shape)
            elif kind is OpKind.KV_APPEND:
                kv.write(layer, a, b)
                # Windows are read after the whole layer is written: rows
                # 0..pos of a cache are final by then.
                out, values[outputs[1]] = kv.windows(layer)
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
