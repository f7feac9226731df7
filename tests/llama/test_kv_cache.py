"""Tests for repro.llama.kv_cache."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.kvpool import KVPool
from repro.llama.kv_cache import KVCache, KVStep
from repro.llama.quantization import QuantSpec, dequantize, quantize


class TestKVCache:
    def test_initial_state(self, micro_config):
        cache = KVCache(micro_config)
        assert cache.length == 0
        assert cache.capacity == micro_config.max_seq_len

    def test_capacity_override(self, micro_config):
        assert KVCache(micro_config, max_seq_len=8).capacity == 8

    def test_invalid_capacity(self, micro_config):
        with pytest.raises(ValueError):
            KVCache(micro_config, max_seq_len=0)

    def test_append_and_view(self, micro_config):
        cache = KVCache(micro_config)
        k = np.arange(micro_config.kv_dim, dtype=np.float32)
        v = -k
        for layer in range(micro_config.n_layers):
            cache.append(layer, k, v, pos=0)
        assert cache.length == 1
        keys, values = cache.keys(0), cache.values(0)
        assert keys.shape == (1, micro_config.kv_dim)
        assert np.array_equal(keys[0], k)
        assert np.array_equal(values[0], v)

    def test_length_advances_only_after_last_layer(self, micro_config):
        cache = KVCache(micro_config)
        k = np.zeros(micro_config.kv_dim, dtype=np.float32)
        cache.append(0, k, k, pos=0)
        assert cache.length == 0
        cache.append(micro_config.n_layers - 1, k, k, pos=0)
        assert cache.length == 1

    def test_out_of_range_layer(self, micro_config):
        cache = KVCache(micro_config)
        k = np.zeros(micro_config.kv_dim, dtype=np.float32)
        with pytest.raises(IndexError):
            cache.append(micro_config.n_layers, k, k, pos=0)

    def test_out_of_range_position(self, micro_config):
        cache = KVCache(micro_config, max_seq_len=4)
        k = np.zeros(micro_config.kv_dim, dtype=np.float32)
        with pytest.raises(IndexError):
            cache.append(0, k, k, pos=4)

    def test_reset(self, micro_config):
        cache = KVCache(micro_config)
        k = np.ones(micro_config.kv_dim, dtype=np.float32)
        for layer in range(micro_config.n_layers):
            cache.append(layer, k, k, pos=0)
        cache.reset()
        assert cache.length == 0

    def test_reset_recycles_without_reallocation(self, micro_config):
        # Engines reuse one cache across requests: reset truncates but
        # must keep the same storage buffers, and a recycled cache must
        # behave exactly like a fresh one.
        cache = KVCache(micro_config, max_seq_len=4)
        keys_buffer = cache.keys(0, length=4).base
        old = np.ones(micro_config.kv_dim, dtype=np.float32)
        for pos in range(2):
            for layer in range(micro_config.n_layers):
                cache.append(layer, old, old, pos=pos)
        cache.reset()
        assert cache.length == 0
        assert cache.keys(0).shape == (0, micro_config.kv_dim)
        assert cache.keys(0, length=4).base is keys_buffer
        new = np.full(micro_config.kv_dim, 7.0, dtype=np.float32)
        for layer in range(micro_config.n_layers):
            cache.append(layer, new, new, pos=0)
        assert cache.length == 1
        assert np.array_equal(cache.keys(0)[0], new)

    def test_block_helpers(self, micro_config):
        per_pos = KVCache.bytes_per_position(micro_config)
        assert KVCache.bytes_per_block(micro_config, 8) == 8 * per_pos
        assert KVCache.blocks_for(0, 4) == 0
        assert KVCache.blocks_for(1, 4) == 1
        assert KVCache.blocks_for(4, 4) == 1
        assert KVCache.blocks_for(5, 4) == 2
        with pytest.raises(ValueError):
            KVCache.bytes_per_block(micro_config, 0)
        with pytest.raises(ValueError):
            KVCache.blocks_for(-1, 4)

    def test_views_do_not_copy(self, micro_config):
        cache = KVCache(micro_config)
        k = np.ones(micro_config.kv_dim, dtype=np.float32)
        for layer in range(micro_config.n_layers):
            cache.append(layer, k, k, pos=0)
        view = cache.keys(0)
        assert view.base is not None  # it is a view into the cache storage

    def test_nbytes(self, micro_config):
        cache = KVCache(micro_config, max_seq_len=8)
        expected = 2 * micro_config.n_layers * 8 * micro_config.kv_dim * 4
        assert cache.nbytes == expected

    def test_storage_is_float32_whatever_the_spec(self, micro_config):
        """A quantised cache charges its budget the quantised footprint
        but keeps float32 working arrays for the attention kernels."""
        for spec in (None, QuantSpec(bits=8, group_size=16)):
            cache = KVCache(micro_config, quant=spec)
            assert cache.nbytes == micro_config.kv_cache_elements() * 4


class TestFakeQuantKV:
    """A step fake-quantises every slot's key and value rows in one
    stacked pass; a stored row must be what quantising that vector alone
    gives."""

    @pytest.mark.parametrize("kv_dim", [16, 32, 64, 96, 288])
    @pytest.mark.parametrize("group_size", [16, 64])
    @pytest.mark.parametrize("bits", [4, 8])
    def test_each_stored_row_equals_quantising_it_alone(
            self, micro_config, kv_dim, group_size, bits):
        spec = QuantSpec(bits=bits, group_size=group_size)
        config = dataclasses.replace(micro_config, dim=kv_dim, n_heads=1,
                                     n_kv_heads=1)
        rng = np.random.default_rng(kv_dim + group_size + bits)
        caches = [KVCache(config, max_seq_len=4, quant=spec) for _ in range(3)]
        for scale in (1e-3, 1.0, 50.0):
            keys = (rng.standard_normal((3, kv_dim)) * scale).astype(np.float32)
            values = (rng.standard_normal((3, kv_dim)) * scale).astype(np.float32)
            values[1, : kv_dim // 4] = 0.0  # an all-zero group: scale 0
            KVStep(caches, [0, 0, 0]).write(0, keys, values)
            for cache, key, value in zip(caches, keys, values):
                assert np.array_equal(cache.keys(0, 1)[0],
                                      dequantize(quantize(key, spec)))
                assert np.array_equal(cache.values(0, 1)[0],
                                      dequantize(quantize(value, spec)))

    def test_flat_and_paged_caches_store_those_rows(self, small_config):
        spec = QuantSpec(bits=8, group_size=64)  # kv_dim 32: a padded group
        flat = KVCache(small_config, quant=spec)
        paged = KVPool(small_config, 1 << 16, block_tokens=4,
                       quant=spec).new_cache()
        rng = np.random.default_rng(0)
        key = rng.standard_normal(small_config.kv_dim).astype(np.float32)
        value = rng.standard_normal(small_config.kv_dim).astype(np.float32)
        for cache in (flat, paged):
            cache.append(0, key, value, pos=0)
            assert np.array_equal(cache.keys(0, 1)[0],
                                  dequantize(quantize(key, spec)))
            assert np.array_equal(cache.values(0, 1)[0],
                                  dequantize(quantize(value, spec)))
