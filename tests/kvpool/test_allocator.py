"""Tests for the KV block allocator (repro.kvpool.allocator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvpool.allocator import BlockAllocator, BlockAllocatorError
from repro.llama.kv_cache import KVCache


def make_allocator(config, n_blocks=8, block_tokens=4):
    capacity = n_blocks * KVCache.bytes_per_block(config, block_tokens)
    return BlockAllocator(config, capacity, block_tokens=block_tokens)


class TestAllocation:
    def test_pool_size_from_budget(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=8)
        assert allocator.n_blocks == 8
        assert allocator.n_allocatable == 8
        assert allocator.blocks_in_use == 0

    def test_undersized_budget_rejected(self, micro_config):
        with pytest.raises(ValueError, match="holds no"):
            BlockAllocator(micro_config, capacity_bytes=1, block_tokens=4)

    def test_allocate_until_exhausted(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=3)
        blocks = [allocator.allocate() for _ in range(3)]
        assert len(set(blocks)) == 3
        assert allocator.allocate() is None
        assert allocator.blocks_in_use == 3
        assert not allocator.can_allocate(1)

    def test_release_recycles(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=2)
        a = allocator.allocate()
        b = allocator.allocate()
        allocator.release(a)
        c = allocator.allocate()
        assert c == a  # the free list hands the block back
        assert allocator.refcount(b) == 1
        assert allocator.version(c) > 0  # recycling bumped the version

    def test_double_release_raises(self, micro_config):
        allocator = make_allocator(micro_config)
        block = allocator.allocate()
        allocator.release(block)
        with pytest.raises(BlockAllocatorError, match="double release"):
            allocator.release(block)

    def test_bad_block_id_raises(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=2)
        with pytest.raises(BlockAllocatorError):
            allocator.release(99)
        with pytest.raises(BlockAllocatorError):
            allocator.acquire(99)

    def test_peak_tracking(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=4)
        blocks = [allocator.allocate() for _ in range(3)]
        for block in blocks:
            allocator.release(block)
        assert allocator.peak_blocks_in_use == 3
        assert allocator.blocks_in_use == 0


class TestSharing:
    def test_acquire_and_release_refcounts(self, micro_config):
        allocator = make_allocator(micro_config)
        block = allocator.allocate()
        allocator.acquire(block)
        assert allocator.refcount(block) == 2
        allocator.release(block)
        assert allocator.refcount(block) == 1
        allocator.release(block)
        assert allocator.refcount(block) == 0

    def test_tagged_block_parks_on_lru_and_resurrects(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=2)
        block = allocator.allocate()
        version = allocator.version(block)
        allocator.set_tag(block, (1, 2, 3, 4))
        allocator.release(block)
        # Still holds its content: the prefix index may hand it back out.
        assert allocator.holds(block, version)
        assert allocator.can_allocate(2)
        allocator.acquire(block)
        assert allocator.refcount(block) == 1
        assert allocator.holds(block, version)

    def test_lru_eviction_invalidates_version(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=2)
        a = allocator.allocate()
        b = allocator.allocate()
        va = allocator.version(a)
        allocator.set_tag(a, ("a",))
        allocator.set_tag(b, ("b",))
        allocator.release(a)  # cached first: a is the LRU entry
        allocator.release(b)
        c = allocator.allocate()  # free list empty -> evicts a
        assert c == a
        assert not allocator.holds(a, va)
        # The eviction dropped a's tag, so releasing it frees the block
        # instead of caching it, and b stays cached.
        vb, vc = allocator.version(b), allocator.version(c)
        allocator.release(c)
        assert not allocator.holds(c, vc)
        assert allocator.allocate() == c
        assert allocator.holds(b, vb)

    def test_untagged_release_goes_to_free_list(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=2)
        block = allocator.allocate()
        version = allocator.version(block)
        allocator.release(block)
        assert not allocator.holds(block, version)

    def test_tagging_free_block_rejected(self, micro_config):
        allocator = make_allocator(micro_config)
        block = allocator.allocate()
        allocator.release(block)
        with pytest.raises(BlockAllocatorError, match="not active"):
            allocator.set_tag(block, (1,))


class TestCopyOnWrite:
    def test_exclusive_block_returned_unchanged(self, micro_config):
        allocator = make_allocator(micro_config)
        block = allocator.allocate()
        assert allocator.ensure_exclusive(block) == block

    def test_shared_block_copied(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=4)
        block = allocator.allocate()
        allocator.storage.keys[block][:] = 3.5
        allocator.storage.values[block][:] = -1.0
        allocator.acquire(block)
        copy = allocator.ensure_exclusive(block)
        assert copy != block
        assert allocator.refcount(block) == 1
        assert allocator.refcount(copy) == 1
        assert np.array_equal(allocator.storage.keys[copy], allocator.storage.keys[block])
        assert np.array_equal(allocator.storage.values[copy], allocator.storage.values[block])
        # Writes to the copy do not leak into the original.
        allocator.storage.keys[copy][:] = 9.0
        assert float(allocator.storage.keys[block][0, 0, 0]) == 3.5

    def test_cow_fails_cleanly_when_pool_full(self, micro_config):
        allocator = make_allocator(micro_config, n_blocks=1)
        block = allocator.allocate()
        allocator.acquire(block)
        assert allocator.ensure_exclusive(block) is None
        assert allocator.refcount(block) == 2  # nothing changed
