"""The op-major step against the slot-major interpreter it replaced.

``SpeedLLMAccelerator.execute_slots`` computes a batched step operator by
operator over stacked activations; ``value_oracle.SlotMajorExecutor`` is
the per-slot recursive interpreter it had before, kept verbatim.  Every
case builds its caches, copies them, runs the step once op-major and once
slot by slot through the oracle, and requires ``array_equal`` on every
returned array **and** on every cache's K/V rows and length.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.batching import BatchSlot
from repro.accel.config import AcceleratorConfig
from repro.graph.builder import GraphBuilder
from repro.graph.fusion import fuse_graph
from repro.kvpool import KVPool
from repro.llama import synthesize_weights
from repro.llama.kv_cache import KVCache
from repro.llama.quantization import QuantSpec
from repro.quant import QuantConfig

from .strategies import STEP_MODELS, StepCase, body_graph, steps
from .value_oracle import SlotMajorExecutor


@functools.lru_cache(maxsize=None)
def _engines(model: str, fused: bool, quant: QuantConfig):
    """The accelerator under test and the oracle over the same weights,
    and the step graph the accelerator's values come from with its body:
    the oracle's graph for a slot without logits, whose result is the
    hidden state."""
    config = STEP_MODELS[model]
    accelerator = SpeedLLMAccelerator(
        synthesize_weights(config, seed=3),
        AcceleratorConfig(operator_fusion=fused, quant=quant))
    oracle = SlotMajorExecutor(
        config, accelerator.functional_checkpoint().weights)
    graph = GraphBuilder(config).build_decode_step(0)
    if fused:
        graph = fuse_graph(graph)
    return accelerator, oracle, {True: graph, False: body_graph(graph, config)}


def _build_caches(case: StepCase, oracle, graphs):
    """The state the step runs on, histories prefilled by the oracle."""
    config = case.config
    quant = (QuantSpec(bits=8, group_size=case.kv_group)
             if case.kv_group else None)
    if case.paged:
        new_cache = KVPool(config, 1 << 22, block_tokens=case.block_tokens,
                           quant=quant).new_cache
    else:
        new_cache = functools.partial(KVCache, config, quant=quant)
    caches = []
    for parent, history in zip(case.forked_from, case.histories):
        cache = new_cache() if parent is None else caches[parent].fork()
        for token in history:
            oracle.execute(graphs[False], token, cache.length, cache)
        caches.append(cache)
    return caches


def _slots(case: StepCase, caches):
    at = [cache.length for cache in caches]
    slots = []
    for index, token, need_logits, speculative in case.slots:
        slots.append(BatchSlot(token, at[index], caches[index], need_logits,
                               request_id=f"req-{index}",
                               speculative=speculative))
        at[index] += 1
    return slots


def _assert_step_matches_oracle(case: StepCase) -> None:
    accelerator, oracle, graphs = _engines(
        case.model, case.fused, case.quant)
    ours = _build_caches(case, oracle, graphs)
    theirs = copy.deepcopy(ours)  # one memo: a pool's caches keep sharing it
    got = accelerator.execute_slots(_slots(case, ours))
    want = [oracle.execute(graphs[slot.need_logits], slot.token, slot.pos,
                           slot.cache)
            for slot in _slots(case, theirs)]
    assert len(got) == len(want)
    for (index, *_), a, b in zip(case.slots, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), f"slot of cache {index} differs"
    for a, b in zip(ours, theirs):
        assert a.length == b.length
        for layer in range(case.config.n_layers):
            assert np.array_equal(a.keys(layer), b.keys(layer))
            assert np.array_equal(a.values(layer), b.values(layer))


class TestGeneratedSteps:
    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(steps())
    def test_every_output_and_cache_row_equals_the_oracles(self, case):
        _assert_step_matches_oracle(case)


def _tokens(config, n, salt=0):
    return tuple((7 * i + 3 + salt) % config.vocab_size for i in range(n))


class TestAttentionLengths:
    """Fixed windows: one and two positions, either side of a KV block
    boundary (4 tokens), and the whole context window."""

    KINDS = [pytest.param(False, None, id="flat"),
             pytest.param(True, None, id="paged"),
             pytest.param(True, 16, id="paged-quant-kv")]

    @pytest.mark.parametrize("model", sorted(STEP_MODELS))
    @pytest.mark.parametrize("paged, kv_group", KINDS)
    @pytest.mark.parametrize("attn_len", [1, 2, 3, 4, 5, "max_seq_len"])
    def test_a_decode_slot_at_every_edge(self, model, paged, kv_group, attn_len):
        config = STEP_MODELS[model]
        if attn_len == "max_seq_len":
            attn_len = config.max_seq_len
        _assert_step_matches_oracle(StepCase(
            model=model, fused=True, quant=QuantConfig.fp32(), paged=paged,
            block_tokens=4, kv_group=kv_group, forked_from=(None,),
            histories=(_tokens(config, attn_len - 1),),
            slots=((0, 5, True, False),)))

    @pytest.mark.parametrize("model", sorted(STEP_MODELS))
    @pytest.mark.parametrize("paged, kv_group", KINDS)
    def test_a_prefill_chunk_across_a_block_boundary_beside_a_fork(
            self, model, paged, kv_group):
        """Cache 0 prefills positions 2..6 (crossing the block boundary
        at 4) while two decoding caches — the second a copy-on-write fork
        of the first when paged — each write position 6 of a shared
        block."""
        config = STEP_MODELS[model]
        _assert_step_matches_oracle(StepCase(
            model=model, fused=False, quant=QuantConfig.datapath(),
            paged=paged,
            block_tokens=4, kv_group=kv_group,
            forked_from=(None, None, 1 if paged else None),
            histories=(_tokens(config, 2), _tokens(config, 6, salt=1),
                       () if paged else _tokens(config, 6, salt=1)),
            slots=((0, 1, False, False), (1, 9, True, False),
                   (0, 2, False, False), (0, 3, False, False),
                   (2, 11, True, False), (0, 4, False, False),
                   (0, 6, True, False))))
