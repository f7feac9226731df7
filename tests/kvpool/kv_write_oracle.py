"""The KV cache write and read paths as they were before a step planned
its rows — now the *oracle* the batched path is compared against.

``repro.llama.kv_cache.KVStep`` plans a step's rows once and then makes
each layer one stacked fake-quant, one scatter and one gather per
storage.  This module keeps what that replaced, verbatim but for the
storage attribute names: one ``append`` per slot and layer, which
attaches or copies the slot's block on the spot and quantises the
position's key/value pair alone, and a read that lists a window's blocks
and concatenates them.  It is a reference implementation, not production
code: ``test_kv_write_path.py`` requires the two to agree bit for bit on
every window, block table and refcount.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kvpool.allocator import BlockAllocatorError
from repro.kvpool.paged_cache import PagedKVCache
from repro.llama.kv_cache import KVCache
from repro.llama.quantization import QuantSpec, dequantize, quantize

__all__ = ["append", "keys", "values"]


def fake_quant_kv(
    key: np.ndarray, value: np.ndarray, spec: QuantSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """One position's key and value vectors quantised and dequantised
    as one ``[2, kv_dim]`` pass."""
    pair = np.empty((2, key.shape[0]), dtype=np.float32)
    pair[0], pair[1] = key, value
    pair = dequantize(quantize(pair, spec))
    return pair[0], pair[1]


def _append_flat(cache: KVCache, layer, key, value, pos) -> None:
    if not 0 <= layer < cache.config.n_layers:
        raise IndexError(f"layer {layer} out of range")
    if not 0 <= pos < cache.capacity:
        raise IndexError(
            f"position {pos} exceeds cache capacity {cache.capacity}"
        )
    key = np.asarray(key, dtype=np.float32).reshape(cache.config.kv_dim)
    value = np.asarray(value, dtype=np.float32).reshape(cache.config.kv_dim)
    if cache.storage.quant is not None:
        key, value = fake_quant_kv(key, value, cache.storage.quant)
    cache.storage.keys[0, layer, pos] = key
    cache.storage.values[0, layer, pos] = value
    if layer == cache.config.n_layers - 1:
        cache.length = max(cache.length, pos + 1)


def _append_paged(cache: PagedKVCache, layer, key, value, pos) -> None:
    if not 0 <= layer < cache.config.n_layers:
        raise IndexError(f"layer {layer} out of range")
    if not 0 <= pos < cache.capacity:
        raise IndexError(
            f"position {pos} exceeds cache capacity {cache.capacity}"
        )
    block_idx = pos // cache.block_tokens
    if block_idx >= len(cache.block_table):
        if not cache.ensure_capacity(pos + 1):
            raise BlockAllocatorError(
                f"no block available for position {pos}"
            )
    block = cache.block_table[block_idx]
    if cache.allocator.refcount(block) > 1:
        exclusive = cache.allocator.ensure_exclusive(block)
        if exclusive is None:
            raise BlockAllocatorError(
                f"no block available to copy-on-write position {pos}"
            )
        cache.block_table[block_idx] = exclusive
        block = exclusive
    offset = pos % cache.block_tokens
    key = np.asarray(key, dtype=np.float32).reshape(cache.config.kv_dim)
    value = np.asarray(value, dtype=np.float32).reshape(cache.config.kv_dim)
    if cache.storage.quant is not None:
        key, value = fake_quant_kv(key, value, cache.storage.quant)
    cache.storage.keys[block][layer, offset] = key
    cache.storage.values[block][layer, offset] = value
    if layer == cache.config.n_layers - 1:
        cache.length = max(cache.length, pos + 1)


def append(cache: KVCache, layer: int, key: np.ndarray, value: np.ndarray,
           pos: int) -> None:
    """Store one position's key/value vectors in ``layer``."""
    if isinstance(cache, PagedKVCache):
        _append_paged(cache, layer, key, value, pos)
    else:
        _append_flat(cache, layer, key, value, pos)


def _gather(cache: PagedKVCache, storage: np.ndarray, layer: int,
            length: int) -> np.ndarray:
    if length == 0:
        return np.zeros((0, cache.config.kv_dim), dtype=np.float32)
    n_full, tail = divmod(length, cache.block_tokens)
    parts = [storage[cache.block_table[i]][layer] for i in range(n_full)]
    if tail:
        parts.append(storage[cache.block_table[n_full]][layer, :tail])
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=0)


def keys(cache: KVCache, layer: int, length: int) -> np.ndarray:
    """The cached keys of ``layer`` at positions ``0..length-1``."""
    if isinstance(cache, PagedKVCache):
        return _gather(cache, cache.storage.keys, layer, length)
    return cache.storage.keys[0, layer, :length]


def values(cache: KVCache, layer: int, length: int) -> np.ndarray:
    """The cached values of ``layer`` at positions ``0..length-1``."""
    if isinstance(cache, PagedKVCache):
        return _gather(cache, cache.storage.values, layer, length)
    return cache.storage.values[0, layer, :length]
