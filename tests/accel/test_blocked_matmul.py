"""``MATMUL`` in row blocks: a block of the weight matrix is applied to
every slot row before the next block is read.

A block boundary falls on a multiple of 64 rows, and OpenBLAS's sgemv
computes output rows in fours, so a row's bits are those of the
whole-matrix GEMV ``W @ x`` — when BLAS runs on one thread.  A threaded
whole-matrix GEMV splits the rows between threads at counts that need
not be multiples of 4 (with two threads 32001 x 288, 30001 x 64 and
5003 x 176 differ from the single-thread result), so the comparisons
with a whole-matrix product run in a subprocess with every BLAS pinned
to one thread.  Batched against alone holds at any thread count — every
row makes the same calls whatever its batch — and runs in process.
"""

from __future__ import annotations

import copy
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.batching import BatchSlot
from repro.accel.config import AcceleratorConfig
from repro.accel.executor import _BLOCK_BYTES, _matmul, _row_blocks
from repro.graph.builder import GraphBuilder
from repro.graph.fusion import fuse_graph
from repro.llama import preset, synthesize_weights
from repro.llama.kv_cache import KVCache

from .strategies import body_graph
from .value_oracle import SlotMajorExecutor

ROOT = Path(__file__).resolve().parents[2]

#: test-small with a vocabulary of 4099: its 64-wide classifier is three
#: blocks, 2048 + 2048 rows and a ragged tail of 3.
WIDE_VOCAB = preset("test-small").replace(vocab_size=4099, name="wide-vocab")


@functools.lru_cache(maxsize=None)
def _accelerator() -> SpeedLLMAccelerator:
    return SpeedLLMAccelerator(synthesize_weights(WIDE_VOCAB, seed=3),
                               AcceleratorConfig(operator_fusion=True))


def _prefilled_caches(accelerator, histories):
    caches = []
    for history in histories:
        cache = KVCache(WIDE_VOCAB)
        for pos, token in enumerate(history):
            accelerator.execute_slots([BatchSlot(token, pos, cache, False)])
        caches.append(cache)
    return caches


def _step(caches):
    """Seven slot rows: a three-position prefill chunk beside two decodes,
    then the chunk's last position and another decode of the first cache."""
    at = [cache.length for cache in caches]
    rows = [(0, 4000, True), (1, 17, False), (1, 4098, False), (1, 2049, True),
            (2, 3, True), (0, 2047, True), (2, 4097, False)]
    slots = []
    for index, token, need_logits in rows:
        slots.append(BatchSlot(token, at[index], caches[index], need_logits))
        at[index] += 1
    return slots


def _batched_and_alone():
    """The step's results batched, and each slot's run alone on copies of
    the same caches (in step order)."""
    accelerator = _accelerator()
    caches = _prefilled_caches(accelerator, [(1, 2, 3), (5,), (9, 8, 7, 6, 5)])
    alone_caches = copy.deepcopy(caches)
    batched = accelerator.execute_slots(_step(caches))
    alone = [accelerator.execute_slots([slot])[0] for slot in _step(alone_caches)]
    return batched, alone


def _assert_rows_equal(got, want):
    assert len(got) == len(want)
    for at, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, at
        assert np.array_equal(a, b), f"slot {at} differs"


def test_the_wide_vocab_classifier_is_three_blocks_with_a_ragged_tail():
    weights = _accelerator().functional_checkpoint().weights
    blocks = _row_blocks(np.asarray(weights["tok_embeddings.weight"]))
    assert [(lo, len(block)) for lo, block in blocks] == [
        (0, 2048), (2048, 2048), (4096, 3)]


def test_row_blocks_are_whole_multiples_of_64_rows_within_the_budget():
    for width in (64, 176, 288, 768, 5632):
        blocks = _row_blocks(np.zeros((32001, width), dtype=np.float32))
        sizes = [len(block) for _, block in blocks]
        assert sum(sizes) == 32001
        assert all(size % 64 == 0 for size in sizes[:-1])
        assert sizes[0] == 64 or sizes[0] * width * 4 <= _BLOCK_BYTES, width
        assert (sizes[0] + 64) * width * 4 > _BLOCK_BYTES, width
    # A one-row tail would be a dot product: the block before gives it 64.
    assert [len(block) for _, block in _row_blocks(
        np.zeros((449, 288), dtype=np.float32))] == [384, 65]
    assert [len(block) for _, block in _row_blocks(
        np.zeros((129, 5632), dtype=np.float32))] == [64, 65]
    within = np.zeros((100, 288), dtype=np.float32)
    [(lo, block)] = _row_blocks(within)
    assert lo == 0 and block.base is within and len(block) == 100


def test_a_batched_step_equals_each_slot_alone():
    batched, alone = _batched_and_alone()
    _assert_rows_equal(batched, alone)


# ----------------------------------------------------------------------
# Against a whole-matrix product: one BLAS thread, in a subprocess.
# ----------------------------------------------------------------------
def pinned_blocked_product_equals_the_whole_matrix_gemv() -> None:
    rng = np.random.default_rng(0)
    for width in (64, 176, 288, 768):
        matrix = rng.standard_normal((32001, width), dtype=np.float32)
        one_block = len(_row_blocks(matrix)[0][1])
        for rows in (1, one_block, 4099, 32000, 32001):
            weight = matrix[:rows]
            blocks = _row_blocks(weight)
            for n in range(1, 8):
                x = rng.standard_normal((n, width), dtype=np.float32)
                got = _matmul(blocks, x)
                for row in range(n):
                    assert np.array_equal(got[row], weight @ x[row]), (
                        width, rows, n, row)


def pinned_a_batched_step_equals_the_slot_major_oracle() -> None:
    batched, alone = _batched_and_alone()
    _assert_rows_equal(batched, alone)
    accelerator = _accelerator()
    oracle = SlotMajorExecutor(WIDE_VOCAB,
                               accelerator.functional_checkpoint().weights)
    graph = fuse_graph(GraphBuilder(WIDE_VOCAB).build_decode_step(0))
    graphs = {True: graph, False: body_graph(graph, WIDE_VOCAB)}
    caches = _prefilled_caches(accelerator, [(1, 2, 3), (5,), (9, 8, 7, 6, 5)])
    want = [oracle.execute(graphs[slot.need_logits], slot.token, slot.pos,
                           slot.cache)
            for slot in _step(caches)]
    _assert_rows_equal(batched, want)


def test_with_one_blas_thread_blocks_equal_the_whole_matrix_gemv():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), str(ROOT),
                                 os.environ.get("PYTHONPATH")])))
    script = ("from tests.accel import test_blocked_matmul as t; "
              "t.pinned_blocked_product_equals_the_whole_matrix_gemv(); "
              "t.pinned_a_batched_step_equals_the_slot_major_oracle()")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
