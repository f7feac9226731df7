"""Tests for KV-cache footprint accounting (repro.llama.kv_cache)."""

from __future__ import annotations

import pytest

from repro.llama.kv_cache import KVCache
from repro.llama.quantization import QuantSpec


class TestKvAccounting:
    def test_bytes_per_position(self, small_config):
        expected = 2 * small_config.n_layers * small_config.kv_dim * 4
        assert KVCache.bytes_per_position(small_config) == expected
        spec = QuantSpec(bits=8, group_size=16)
        assert KVCache.bytes_per_position(small_config, spec) == (
            2 * small_config.n_layers * spec.storage_bytes(small_config.kv_dim))

    def test_projected_matches_allocated(self, small_config):
        for positions in (1, 7, small_config.max_seq_len):
            cache = KVCache(small_config, max_seq_len=positions)
            assert KVCache.projected_nbytes(small_config, positions) == cache.nbytes

    def test_negative_positions_rejected(self, small_config):
        with pytest.raises(ValueError):
            KVCache.projected_nbytes(small_config, -1)
