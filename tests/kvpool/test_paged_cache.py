"""Tests for the paged per-request cache view (repro.kvpool.paged_cache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvpool.allocator import BlockAllocator, BlockAllocatorError
from repro.kvpool.paged_cache import PagedKVCache
from repro.llama.kv_cache import KVCache


BLOCK = 4


@pytest.fixture
def allocator(micro_config):
    capacity = 8 * KVCache.bytes_per_block(micro_config, BLOCK)
    return BlockAllocator(micro_config, capacity, block_tokens=BLOCK)


def fill(cache, config, positions, value=None):
    """Append distinct vectors at the given positions (all layers)."""
    for pos in positions:
        cache.ensure_capacity(pos + 1)
        k = np.full(config.kv_dim, value if value is not None else pos + 0.25,
                    dtype=np.float32)
        for layer in range(config.n_layers):
            cache.append(layer, k, -k, pos)


class TestViewParity:
    def test_matches_flat_cache_exactly(self, micro_config, allocator):
        """The gather across blocks is bit-identical to a flat cache."""
        rng = np.random.default_rng(3)
        flat = KVCache(micro_config, max_seq_len=16)
        paged = PagedKVCache(allocator, max_seq_len=16)
        for pos in range(10):  # 2.5 blocks
            paged.ensure_capacity(pos + 1)
            for layer in range(micro_config.n_layers):
                k = rng.standard_normal(micro_config.kv_dim).astype(np.float32)
                v = rng.standard_normal(micro_config.kv_dim).astype(np.float32)
                flat.append(layer, k, v, pos)
                paged.append(layer, k, v, pos)
        assert flat.length == paged.length == 10
        for layer in range(micro_config.n_layers):
            assert np.array_equal(flat.keys(layer), paged.keys(layer))
            assert np.array_equal(flat.values(layer), paged.values(layer))
        # Partial windows too (attention reads arbitrary lengths).
        assert np.array_equal(flat.keys(0, 7), paged.keys(0, 7))
        assert np.array_equal(flat.values(1, 3), paged.values(1, 3))

    def test_empty_view(self, micro_config, allocator):
        paged = PagedKVCache(allocator)
        assert paged.keys(0).shape == (0, micro_config.kv_dim)

    def test_length_advances_after_last_layer(self, micro_config, allocator):
        paged = PagedKVCache(allocator)
        paged.ensure_capacity(1)
        k = np.zeros(micro_config.kv_dim, dtype=np.float32)
        paged.append(0, k, k, pos=0)
        assert paged.length == 0
        paged.append(micro_config.n_layers - 1, k, k, pos=0)
        assert paged.length == 1


class TestBlockManagement:
    def test_blocks_attach_on_demand(self, micro_config, allocator):
        cache = PagedKVCache(allocator)
        assert cache.ensure_capacity(1)
        assert cache.n_blocks == 1
        assert cache.ensure_capacity(BLOCK)  # same block suffices
        assert cache.n_blocks == 1
        assert cache.ensure_capacity(BLOCK + 1)
        assert cache.n_blocks == 2
        assert cache.nbytes == 2 * allocator.bytes_per_block

    def test_ensure_capacity_fails_when_pool_dry(self, micro_config, allocator):
        hog = PagedKVCache(allocator, max_seq_len=32)
        assert hog.ensure_capacity(8 * BLOCK)
        cache = PagedKVCache(allocator)
        assert not cache.ensure_capacity(1)
        hog.release()
        assert cache.ensure_capacity(1)

    def test_capacity_bound_enforced(self, micro_config, allocator):
        cache = PagedKVCache(allocator, max_seq_len=8)
        with pytest.raises(ValueError, match="exceed the logical capacity"):
            cache.ensure_capacity(9)

    def test_release_is_idempotent(self, micro_config, allocator):
        cache = PagedKVCache(allocator)
        fill(cache, micro_config, range(5))
        cache.release()
        cache.release()
        assert allocator.blocks_in_use == 0

    def test_release_after_reuse_frees_reattached_blocks(self, micro_config,
                                                         allocator):
        # The append fallback re-attaches blocks after a release; a later
        # release must free those too instead of leaking them.
        cache = PagedKVCache(allocator)
        fill(cache, micro_config, range(2))
        cache.release()
        fill(cache, micro_config, range(1))
        assert allocator.blocks_in_use == 1
        cache.release()
        assert allocator.blocks_in_use == 0

    def test_reset_returns_blocks(self, micro_config, allocator):
        cache = PagedKVCache(allocator)
        fill(cache, micro_config, range(5))
        assert allocator.blocks_in_use == 2
        cache.reset()
        assert cache.length == 0
        assert allocator.blocks_in_use == 0
        # The cache stays usable after a reset.
        fill(cache, micro_config, range(2))
        assert cache.length == 2

    def test_append_without_block_raises(self, micro_config):
        # A one-block pool that is already hogged cannot back position 0.
        capacity = KVCache.bytes_per_block(micro_config, BLOCK)
        allocator = BlockAllocator(micro_config, capacity, block_tokens=BLOCK)
        hog = PagedKVCache(allocator)
        hog.ensure_capacity(1)
        cache = PagedKVCache(allocator)
        k = np.zeros(micro_config.kv_dim, dtype=np.float32)
        with pytest.raises(BlockAllocatorError, match="no block available"):
            cache.append(0, k, k, pos=0)


class TestSharingAndFork:
    def test_adopt_prefix_skips_positions(self, micro_config, allocator):
        donor = PagedKVCache(allocator)
        fill(donor, micro_config, range(2 * BLOCK))
        adopter = PagedKVCache(allocator)
        adopter.adopt_prefix(donor.block_table[:2])
        assert adopter.length == 2 * BLOCK
        assert np.array_equal(adopter.keys(0), donor.keys(0, 2 * BLOCK))
        for block in donor.block_table[:2]:
            assert allocator.refcount(block) == 2

    def test_adopt_into_nonempty_cache_rejected(self, micro_config, allocator):
        donor = PagedKVCache(allocator)
        fill(donor, micro_config, range(BLOCK))
        adopter = PagedKVCache(allocator)
        fill(adopter, micro_config, range(1))
        with pytest.raises(BlockAllocatorError, match="empty cache"):
            adopter.adopt_prefix(donor.block_table[:1])

    def test_fork_copy_on_write(self, micro_config, allocator):
        original = PagedKVCache(allocator)
        fill(original, micro_config, range(BLOCK + 2))  # partial tail block
        child = original.fork()
        assert child.length == original.length
        assert child.block_table == original.block_table
        # The child's next append lands in the shared tail block and must
        # copy it instead of corrupting the original.
        fill(child, micro_config, [BLOCK + 2], value=99.0)
        assert child.block_table[0] == original.block_table[0]
        assert child.block_table[1] != original.block_table[1]
        assert original.length == BLOCK + 2
        assert original.keys(0).shape[0] == BLOCK + 2
        assert float(child.keys(0)[BLOCK + 2, 0]) == 99.0
        # Shared full block still shared; originals untouched.
        assert np.array_equal(child.keys(0)[:BLOCK + 2],
                              original.keys(0))

    def test_rewrite_below_length_copies_shared_block(self, micro_config,
                                                      allocator):
        # A forked sequence rewriting an already-written position must
        # copy the shared block even though it is not in the tail region.
        original = PagedKVCache(allocator)
        fill(original, micro_config, range(2 * BLOCK))
        child = original.fork()
        fill(child, micro_config, [0], value=42.0)
        assert child.block_table[0] != original.block_table[0]
        assert float(original.keys(0)[0, 0]) == 0.25  # untouched
        assert float(child.keys(0)[0, 0]) == 42.0
        assert allocator.refcount(original.block_table[0]) == 1

    def test_fork_release_drops_only_child_refs(self, micro_config, allocator):
        original = PagedKVCache(allocator)
        fill(original, micro_config, range(BLOCK))
        child = original.fork()
        child.release()
        assert allocator.refcount(original.block_table[0]) == 1
        assert np.isfinite(original.keys(0)).all()


class TestTruncate:
    """Speculative-rollback truncation (tail blocks released exactly once)."""

    def test_truncate_frees_whole_tail_blocks(self, micro_config, allocator):
        cache = PagedKVCache(allocator, max_seq_len=16)
        fill(cache, micro_config, range(10))  # 3 blocks (4+4+2)
        assert cache.n_blocks == 3
        cache.truncate(5)
        assert cache.length == 5
        assert cache.n_blocks == 2  # the partially-kept block stays
        assert allocator.blocks_in_use == 2

    def test_truncate_is_idempotent_and_never_grows(self, micro_config, allocator):
        cache = PagedKVCache(allocator, max_seq_len=16)
        fill(cache, micro_config, range(10))
        cache.truncate(5)
        cache.truncate(5)
        cache.truncate(9)   # beyond current length: no-op
        assert cache.length == 5
        assert cache.n_blocks == 2
        assert allocator.blocks_in_use == 2

    def test_truncate_mid_block_keeps_valid_prefix(self, micro_config, allocator):
        cache = PagedKVCache(allocator, max_seq_len=16)
        fill(cache, micro_config, range(6))
        before = cache.keys(0, 5).copy()
        cache.truncate(5)
        assert np.array_equal(cache.keys(0, 5), before)
        # Appending after the rollback overwrites the stale row cleanly.
        fill(cache, micro_config, [5], value=99.0)
        assert cache.length == 6
        assert cache.keys(0, 6)[5, 0] == 99.0

    def test_shared_tail_released_exactly_once_after_fork(
        self, micro_config, allocator
    ):
        """Regression: rollback of a forked sequence must drop only its
        own reference to a shared tail block — never double-release."""
        parent = PagedKVCache(allocator, max_seq_len=16)
        fill(parent, micro_config, range(8))  # 2 full blocks
        child = parent.fork()
        shared = list(parent.block_table)
        assert all(allocator.refcount(b) == 2 for b in shared)
        # Parent rolls its tail block back (speculative rejection).
        parent.truncate(4)
        assert allocator.refcount(shared[1]) == 1  # child still holds it
        # A second rollback of the same region must not touch it again.
        parent.truncate(4)
        parent.truncate(0)
        assert allocator.refcount(shared[1]) == 1
        # The child's data is intact and its release frees the block.
        assert child.keys(0, 8).shape[0] == 8
        child.release()
        assert allocator.blocks_in_use == 0

    def test_double_release_still_raises_for_direct_misuse(
        self, micro_config, allocator
    ):
        cache = PagedKVCache(allocator, max_seq_len=16)
        fill(cache, micro_config, range(4))
        block = cache.block_table[0]
        cache.truncate(0)
        with pytest.raises(BlockAllocatorError, match="double release"):
            allocator.release(block)

    def test_negative_length_rejected(self, allocator):
        cache = PagedKVCache(allocator, max_seq_len=16)
        with pytest.raises(ValueError):
            cache.truncate(-1)

    def test_flat_cache_truncate(self, micro_config):
        flat = KVCache(micro_config, max_seq_len=8)
        k = np.ones(micro_config.kv_dim, dtype=np.float32)
        for pos in range(6):
            for layer in range(micro_config.n_layers):
                flat.append(layer, k * pos, k, pos)
        flat.truncate(3)
        assert flat.length == 3
        flat.truncate(7)  # never grows
        assert flat.length == 3
        with pytest.raises(ValueError):
            flat.truncate(-2)
