"""A step's KV traffic against the per-row path it replaced.

``repro.llama.kv_cache.KVStep`` plans every slot's row before the first
write and makes each layer one stacked fake-quant, one scatter and one
gather per storage; ``kv_write_oracle`` keeps the per-slot, per-layer
``append`` and the list-and-concatenate read.  Every generated case
builds its caches (flat, paged, forked, prefix-adopted), copies them,
runs one step both ways and requires ``array_equal`` on every window and
every cache row, and equal block tables, lengths and refcounts.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.batching import BatchSlot
from repro.api import EngineConfig
from repro.kvpool import KVPool
from repro.kvpool.allocator import BlockAllocatorError
from repro.kvpool.paged_cache import PagedKVCache
from repro.llama import kv_cache as kv_cache_module
from repro.llama import preset
from repro.llama.kv_cache import KVCache, KVStep
from repro.llama.quantization import QuantSpec

from . import kv_write_oracle as oracle

CONFIG = preset("test-small")  # kv_dim 32, 3 layers, 64 positions


@st.composite
def cases(draw):
    """Caches with histories, then one step over some of them: a
    ``dict`` the test builds from."""
    block_tokens = draw(st.sampled_from([1, 4, 16]))
    # kv_dim 32: group 16 divides it, group 64 pads.
    group = draw(st.sampled_from([None, 16, 64]))
    caches = []
    for index in range(draw(st.integers(1, 4))):
        paged = [at for at, (kind, *_) in enumerate(caches) if kind != "flat"]
        kinds = ["flat", "paged"] + (["fork", "prefix"] if paged else [])
        kind = draw(st.sampled_from(kinds))
        source = draw(st.sampled_from(paged)) if kind in ("fork", "prefix") else None
        caches.append((kind, source, draw(st.integers(0, 12)),
                       draw(st.booleans())))  # flat: quantised like the pool
    order = draw(st.lists(st.integers(0, len(caches) - 1), min_size=1,
                          max_size=8))
    rewind = draw(st.lists(st.integers(0, 2), min_size=len(caches),
                           max_size=len(caches)))
    return dict(block_tokens=block_tokens, group=group, caches=caches,
                order=order, rewind=rewind, seed=draw(st.integers(0, 2**16)))


def _rows(rng, n):
    return (rng.standard_normal((n, CONFIG.kv_dim)) * 3).astype(np.float32)


def _build(case):
    """The caches, histories written through the oracle."""
    spec = (QuantSpec(bits=8, group_size=case["group"])
            if case["group"] else None)
    pool = KVPool(CONFIG, 1 << 22, block_tokens=case["block_tokens"],
                  quant=spec)
    rng = np.random.default_rng(case["seed"])
    caches = []
    for kind, source, history, quantised in case["caches"]:
        if kind == "flat":
            cache = KVCache(CONFIG, quant=spec if quantised else None)
        elif kind == "fork":
            cache = caches[source].fork()
        else:
            cache = pool.new_cache()
            if kind == "prefix":
                donor = caches[source]
                cache.adopt_prefix(
                    donor.block_table[:donor.length // pool.block_tokens])
        start = cache.length
        for pos in range(start, min(start + history, CONFIG.max_seq_len - 8)):
            for layer in range(CONFIG.n_layers):
                key, value = _rows(rng, 2)
                oracle.append(cache, layer, key, value, pos)
        caches.append(cache)
    return caches


def _positions(case, caches):
    """Each slot's position: a cache's slots run on from its length, the
    first ``rewind`` positions back (a fork editing its history)."""
    at = [max(0, cache.length - back)
          for cache, back in zip(caches, case["rewind"])]
    positions = []
    for index in case["order"]:
        positions.append(at[index])
        at[index] += 1
    return positions


def _refcounts(caches):
    pools = {id(c.allocator): c.allocator for c in caches
             if isinstance(c, PagedKVCache)}
    return [[a.refcount(b) for b in range(a.n_blocks)] for a in pools.values()]


def _assert_equal_state(ours, theirs):
    assert [c.length for c in ours] == [c.length for c in theirs]
    assert [c.block_table for c in ours] == [c.block_table for c in theirs]
    assert _refcounts(ours) == _refcounts(theirs)
    for a, b in zip(ours, theirs):
        for layer in range(CONFIG.n_layers):
            assert np.array_equal(oracle.keys(a, layer, a.length),
                                  oracle.keys(b, layer, b.length))
            assert np.array_equal(oracle.values(a, layer, a.length),
                                  oracle.values(b, layer, b.length))


def _assert_step_matches_oracle(case):
    ours = _build(case)
    theirs = copy.deepcopy(ours)  # one memo: a pool's caches keep sharing it
    positions = _positions(case, ours)
    rng = np.random.default_rng(case["seed"] + 1)
    step = KVStep([ours[i] for i in case["order"]], positions)
    for layer in range(CONFIG.n_layers):
        keys, values = _rows(rng, len(positions)), _rows(rng, len(positions))
        step.write(layer, keys, values)
        got = step.windows(layer)
        for row, (index, pos) in enumerate(zip(case["order"], positions)):
            oracle.append(theirs[index], layer, keys[row], values[row], pos)
        want = ([oracle.keys(theirs[i], layer, pos + 1)
                 for i, pos in zip(case["order"], positions)],
                [oracle.values(theirs[i], layer, pos + 1)
                 for i, pos in zip(case["order"], positions)])
        for got_windows, want_windows in zip(got, want):
            for a, b in zip(got_windows, want_windows, strict=True):
                assert a.dtype == b.dtype == np.float32
                assert np.array_equal(a, b)
    _assert_equal_state(ours, theirs)


class TestGeneratedSteps:
    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(cases())
    def test_every_window_and_row_equals_the_per_row_path(self, case):
        _assert_step_matches_oracle(case)


class TestWholePositions:
    """``KVCache.write`` / ``read``: the disaggregated handoff's one
    write and one gather of ``[n_layers, n, kv_dim]`` rows."""

    @pytest.mark.parametrize("paged", [False, True], ids=["flat", "paged"])
    @pytest.mark.parametrize("group", [None, 64], ids=["fp32", "int8"])
    def test_write_then_read_equals_per_row_appends(self, paged, group):
        spec = QuantSpec(bits=8, group_size=group) if group else None
        new_cache = (KVPool(CONFIG, 1 << 20, block_tokens=4, quant=spec).new_cache
                     if paged else functools.partial(KVCache, CONFIG, quant=spec))
        ours, theirs = new_cache(), new_cache()
        rng = np.random.default_rng(5)
        shape = (CONFIG.n_layers, 11, CONFIG.kv_dim)
        keys, values = rng.standard_normal((2, *shape)).astype(np.float32)
        ours.write(2, keys[:, 2:], values[:, 2:])
        for pos in range(2, 11):
            for layer in range(CONFIG.n_layers):
                oracle.append(theirs, layer, keys[layer, pos],
                              values[layer, pos], pos)
        assert ours.length == theirs.length == 11
        got_keys, got_values = ours.read(11)
        assert got_keys.shape == got_values.shape == shape
        for layer in range(CONFIG.n_layers):
            assert np.array_equal(got_keys[layer], oracle.keys(theirs, layer, 11))
            assert np.array_equal(got_values[layer],
                                  oracle.values(theirs, layer, 11))


@functools.lru_cache(maxsize=None)
def _accelerator():
    from repro.llama import synthesize_weights
    return SpeedLLMAccelerator(synthesize_weights(CONFIG, seed=3))


def _fill(cache, n):
    for pos in range(n):
        for layer in range(CONFIG.n_layers):
            row = np.full(CONFIG.kv_dim, pos + layer / 8, dtype=np.float32)
            cache.append(layer, row, -row, pos)


def _snapshot(pool, caches):
    allocator = pool.allocator
    return (allocator.storage.keys.copy(), allocator.storage.values.copy(),
            [list(c.block_table) for c in caches],
            [allocator.refcount(b) for b in range(allocator.n_blocks)],
            [c.length for c in caches])


def _assert_unchanged(before, after):
    keys, values, tables, refcounts, lengths = after
    assert np.array_equal(keys, before[0])
    assert np.array_equal(values, before[1])
    assert (tables, refcounts, lengths) == before[2:]


class TestRejectedStep:
    """A step that cannot get its blocks writes no row and leaves every
    block table and refcount as it was; one that fails after planning
    gives back what planning attached and copied."""

    def _pool(self):  # three blocks of four positions
        return KVPool(CONFIG, 3 * KVCache.bytes_per_block(CONFIG, 4),
                      block_tokens=4)

    def test_copy_on_write_failure_after_an_in_place_slot(self):
        pool = self._pool()
        a = pool.new_cache()
        _fill(a, 3)
        child = a.fork()
        b = pool.new_cache()
        _fill(b, 7)  # two blocks: the pool is exhausted
        before = _snapshot(pool, (a, child, b))
        slots = [BatchSlot(5, 7, b, True), BatchSlot(6, 2, child, True)]
        with pytest.raises(BlockAllocatorError, match="copy-on-write position 2"):
            _accelerator().execute_slots(slots)
        _assert_unchanged(before, _snapshot(pool, (a, child, b)))

    def test_blocks_attached_for_earlier_slots_are_returned(self):
        pool = self._pool()
        a = pool.new_cache()
        _fill(a, 3)
        child = a.fork()
        b = pool.new_cache()
        _fill(b, 4)  # one full block; one block stays free
        tables = [list(c.block_table) for c in (a, child, b)]
        refcounts = [pool.allocator.refcount(block) for block in range(3)]
        slots = [BatchSlot(5, 4, b, True), BatchSlot(6, 3, child, True)]
        with pytest.raises(BlockAllocatorError, match="copy-on-write position 3"):
            _accelerator().execute_slots(slots)
        assert [list(c.block_table) for c in (a, child, b)] == tables
        assert [pool.allocator.refcount(block) for block in range(3)] == refcounts
        assert pool.allocator.blocks_in_use == 2
        assert [c.length for c in (a, child, b)] == [3, 3, 4]

    def test_a_non_finite_row_at_a_later_layer_gives_the_blocks_back(
            self, monkeypatch):
        """Planning attaches a block and copies a shared one; layer 1's
        rows then fail to quantise, after layer 0 was written."""
        llm = EngineConfig(model="test-small", quant="int8",
                           quant_kv=True).build_llm()
        spec = llm.accelerator.config.quant.kv
        pool = KVPool(CONFIG, 4 * KVCache.bytes_per_block(CONFIG, 4, spec),
                      block_tokens=4, quant=spec)
        a = pool.new_cache()
        _fill(a, 3)
        child = a.fork()
        b = pool.new_cache()
        _fill(b, 4)
        before = _snapshot(pool, (a, child, b))[2:]
        rows = [cache.read(cache.length) for cache in (a, child, b)]
        calls = []
        quantize = kv_cache_module.quantize

        def poisoned(x, spec):
            calls.append(1)
            if len(calls) == 2:  # layer 1
                x = x.copy()
                x[1, 0, 5] = np.nan
            return quantize(x, spec)

        monkeypatch.setattr(kv_cache_module, "quantize", poisoned)
        slots = [BatchSlot(5, 4, b, True), BatchSlot(6, 3, child, True)]
        with pytest.raises(ValueError, match="non-finite"):
            llm.accelerator.execute_slots(slots)
        assert _snapshot(pool, (a, child, b))[2:] == before
        assert pool.allocator.blocks_in_use == 2
        for cache, (keys, values) in zip((a, child, b), rows):
            assert np.array_equal(cache.read(cache.length)[0], keys)
            assert np.array_equal(cache.read(cache.length)[1], values)


class TestCountedFakeQuant:
    """One batched step on an int8-KV engine quantises once per layer,
    whatever the number of slots and caches: the per-row path made one
    call per slot and layer."""

    @pytest.mark.parametrize("paged", [False, True], ids=["reserved", "paged"])
    def test_one_quantize_call_per_layer(self, monkeypatch, paged):
        llm = EngineConfig(model="test-small", quant="int8",
                           quant_kv=True).build_llm()
        spec = llm.accelerator.config.quant.kv
        assert spec is not None
        new_cache = (KVPool(CONFIG, 1 << 20, block_tokens=4, quant=spec).new_cache
                     if paged else functools.partial(KVCache, CONFIG, quant=spec))
        caches = [new_cache() for _ in range(3)]
        for cache in caches:
            _fill(cache, 5)
        slots = [BatchSlot(1, 5, caches[0], True), BatchSlot(2, 5, caches[1], False),
                 BatchSlot(3, 6, caches[1], True), BatchSlot(4, 5, caches[2], True)]
        calls = []
        quantize = kv_cache_module.quantize
        monkeypatch.setattr(kv_cache_module, "quantize",
                            lambda *args: calls.append(args) or quantize(*args))
        llm.accelerator.execute_slots(slots)
        assert len(calls) == CONFIG.n_layers
        assert all(x.shape == (2, len(slots), CONFIG.kv_dim) for x, _ in calls)
