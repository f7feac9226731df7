"""Tests for the reserve/release byte ledger, ``ReservedKV``'s
``reserved_bytes`` counted against its ``capacity_bytes`` (a separate
``repro.sim.memory.MemoryBudget`` before the manager kept it itself)."""

from __future__ import annotations

import pytest

from repro.kvpool import BlockAllocatorError, ReservedKV
from repro.llama.kv_cache import KVCache


def _ledger(config, positions):
    """A manager whose budget holds exactly ``positions`` cached positions,
    and the bytes one position costs."""
    unit = ReservedKV(config, 1).footprint(1)
    return ReservedKV(config, positions * unit), unit


def _available(kv):
    return kv.capacity_bytes - kv.reserved_bytes


class TestMemoryBudget:
    def test_reserve_and_release_cycle(self, small_config):
        kv, unit = _ledger(small_config, 100)
        assert _available(kv) == 100 * unit
        first, _ = kv.claim([1], 60, False)
        assert kv.reserved_bytes == 60 * unit
        assert _available(kv) == 40 * unit
        assert kv.claim([2], 41, True) is None
        assert kv.claim([3], 40, True) is not None
        kv.release(first)
        assert _available(kv) == 60 * unit

    def test_fits_is_side_effect_free(self, small_config):
        kv, unit = _ledger(small_config, 10)
        assert kv.never_fits(10) is None
        assert str(10 * unit) in kv.never_fits(11)
        assert kv.reserved_bytes == 0

    def test_over_release_raises(self, small_config):
        kv, _ = _ledger(small_config, 10)
        kv.claim([1], 5, False)
        with pytest.raises(BlockAllocatorError):
            kv.release(KVCache(small_config, max_seq_len=6))

    def test_double_release_raises(self, small_config):
        # Releasing the same reservation twice must raise rather than
        # silently driving the ledger negative (and then over-admitting).
        kv, unit = _ledger(small_config, 10)
        cache, _ = kv.claim([1], 6, False)
        kv.release(cache)
        with pytest.raises(BlockAllocatorError, match="not held"):
            kv.release(cache)
        assert kv.reserved_bytes == 0
        assert _available(kv) == 10 * unit

    def test_ledger_consistent_after_failed_release(self, small_config):
        kv, unit = _ledger(small_config, 10)
        cache, _ = kv.claim([1], 4, False)
        with pytest.raises(BlockAllocatorError):
            kv.release(KVCache(small_config, max_seq_len=5))
        # The failed release must not have mutated anything.
        assert kv.reserved_bytes == 4 * unit
        kv.release(cache)
        assert _available(kv) == 10 * unit

    def test_negative_amounts_rejected(self, small_config):
        kv, _ = _ledger(small_config, 10)
        for positions in (-1, 0):
            with pytest.raises(ValueError):
                kv.claim([1], positions, False)
        assert kv.reserved_bytes == 0

    def test_nonpositive_capacity_rejected(self, small_config):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                ReservedKV(small_config, capacity)
