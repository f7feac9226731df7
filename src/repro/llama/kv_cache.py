"""Key/value cache for autoregressive decoding.

The cache is the dominant on-chip/off-chip data structure during the decode
stage and is what the paper's memory-reuse strategy is largely about.  Every
cache is a *block table* over a :class:`KVStorage`: logical position ``p``
is offset ``p % block_tokens`` of physical block
``block_table[p // block_tokens]``.  :class:`KVCache` is the one-block
case, a private storage of ``capacity`` positions;
:class:`~repro.kvpool.paged_cache.PagedKVCache` draws fixed-size blocks
from a pool shared by many sequences.

Both are written and read the way the accelerator streams its KV array:
in bulk, by row index.  :class:`KVStep` plans a step's rows once — every
slot's write row and its attention window — and then each layer is one
fake-quant of every slot's key and value rows, and per storage one scatter
and one gather.  ``append`` is that path for one row.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import LlamaConfig
from .quantization import QuantSpec, dequantize, quantize

__all__ = ["KVCache", "KVStep", "KVStorage"]


class KVStorage:
    """The key and value rows behind one or more caches.

    ``rows`` is one float32 array of ``[2, rows, kv_dim]``, the keys then
    the values, so a step writes both in one scatter; ``keys`` and
    ``values`` view each half as ``[n_blocks, n_layers, block_tokens,
    kv_dim]``, offset ``o`` of block ``b`` in layer ``l`` being row
    ``b * block_rows + l * block_tokens + o``.  ``quant`` is how
    the rows are stored: ``None`` for float32, or the group-quantisation
    spec of a quantising ``QuantConfig.kv``, whose error every written row
    carries (fake-quant on write) while the working arrays stay float32
    for the NumPy attention kernels.
    """

    def __init__(self, config: LlamaConfig, n_blocks: int, block_tokens: int,
                 quant: Optional[QuantSpec] = None) -> None:
        self.shape = (n_blocks, config.n_layers, block_tokens, config.kv_dim)
        self.rows = np.zeros(
            (2, n_blocks * config.n_layers * block_tokens, config.kv_dim),
            dtype=np.float32)
        self.block_tokens = block_tokens
        #: Rows from one block to the next: every layer's rows of a block.
        self.block_rows = config.n_layers * block_tokens
        self.quant = quant

    # Views made on each use, so a deep copy's views are of its own rows.
    @property
    def keys(self) -> np.ndarray:
        return self.rows[0].reshape(self.shape)

    @property
    def values(self) -> np.ndarray:
        return self.rows[1].reshape(self.shape)


class KVStep:
    """The ``KV_APPEND`` of one step over all its slots, planned once.

    ``caches[i]`` is written at ``positions[i]``.  Planning makes every
    slot's row writable (a paged cache attaches its block, and copies a
    shared one first) before any row is written; a step that cannot be
    planned puts every block table back and raises, having written
    nothing.  Slots sharing a cache must come in increasing position.
    Each layer is then one :meth:`write` and one :meth:`windows`; a step
    that fails after planning calls :meth:`restore_blocks`.
    """

    def __init__(self, caches: Sequence["KVCache"], positions: Sequence[int]) -> None:
        self._caches, self._positions = caches, positions
        self._n_layers = caches[0].config.n_layers
        self._found = {id(cache): (cache, list(cache.block_table), cache.length)
                       for cache in caches}
        try:
            written = [cache.writable_row(pos) for cache, pos in zip(caches, positions)]
        except BaseException:
            self.restore_blocks()
            raise
        by_storage, by_spec = {}, {}
        for slot, cache in enumerate(caches):
            by_storage.setdefault(id(cache.storage), []).append(slot)
            if cache.storage.quant is not None:
                by_spec.setdefault(cache.storage.quant, []).append(slot)
        self._quant = [(spec, np.array(slots)) for spec, slots in by_spec.items()]
        # Per storage: its slots, and their rows in every layer.
        self._groups = []
        for slots in by_storage.values():
            storage = caches[slots[0]].storage
            rows = (np.array([written[slot] for slot in slots])
                    + np.arange(self._n_layers)[:, None] * storage.block_tokens)
            self._groups.append((storage, slots, np.array(slots), rows))

    def restore_blocks(self) -> None:
        """Put back every block table and length planning found, giving
        back each block it attached or copied.  Rows already written
        stay, in blocks given back or past each cache's length — unless
        a slot rewrote a position below it."""
        for cache, table, length in self._found.values():
            cache.restore_blocks(table)
            cache.length = length

    def write(self, layer: Optional[int], keys: np.ndarray,
              values: np.ndarray) -> None:
        """Store every slot's key and value row, ``[n_slots, kv_dim]``
        each, in ``layer`` — or, with ``layer`` None, ``[n_layers,
        n_slots, kv_dim]`` rows in every layer at once.  The quantising
        storages' rows go through one fake-quant per spec — groups never
        span rows, so each row is what quantising it alone gives — and
        each storage takes its slots' keys and values in one scatter.
        Once the final layer is written, each cache holds at least
        ``pos + 1`` positions."""
        kv = np.empty((2, *keys.shape), dtype=np.float32)
        kv[0], kv[1] = keys, values
        for spec, slots in self._quant:
            kv[..., slots, :] = dequantize(quantize(kv[..., slots, :], spec))
        for storage, _, slots, rows in self._groups:
            storage.rows[:, rows if layer is None else rows[layer]] = kv[..., slots, :]
        if layer is None or layer == self._n_layers - 1:
            for cache, pos in zip(self._caches, self._positions):
                cache.length = max(cache.length, pos + 1)

    @functools.cached_property
    def _windows(self) -> List[Tuple[Optional[np.ndarray], List[slice]]]:
        """Per storage group: the layer-0 storage rows its gather reads —
        each cache's longest window once, end to end — and each slot's
        slice of them; for a storage of one block, whose windows are runs
        of the layer's rows from the first, None and each slot's run."""
        windows = []
        for storage, slots, _, _ in self._groups:
            longest = {}  # a cache's slots come in increasing position
            for slot in slots:
                cache = self._caches[slot]
                longest[id(cache)] = (cache, self._positions[slot] + 1)
            starts, rows = dict.fromkeys(longest, 0), None
            if storage.shape[0] > 1:
                ends = np.cumsum([n for _, n in longest.values()]).tolist()
                starts = {key: end - n for (key, (_, n)), end
                          in zip(longest.items(), ends)}
                rows = np.concatenate([cache.rows(n) for cache, n in longest.values()])
            windows.append((rows, [
                slice(starts[id(self._caches[slot])],
                      starts[id(self._caches[slot])] + self._positions[slot] + 1)
                for slot in slots]))
        return windows

    def windows(self, layer: int) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Each slot's keys and values of ``layer`` at positions
        ``0..pos``: per storage one gather, cut into per-slot views (a
        one-block storage is cut as it is), so slots of one cache share
        its rows.  Read after the layer's :meth:`write`, a window holds
        the rows the step wrote before it."""
        keys: List[np.ndarray] = [None] * len(self._caches)
        values: List[np.ndarray] = [None] * len(self._caches)
        for (storage, slots, *_), (rows, cuts) in zip(self._groups, self._windows):
            if rows is None:
                layer_kv = storage.rows[:, layer * storage.block_tokens:
                                        (layer + 1) * storage.block_tokens]
            else:
                layer_kv = storage.rows.take(rows + layer * storage.block_tokens, axis=1)
            for slot, cut in zip(slots, cuts):
                keys[slot], values[slot] = layer_kv[0, cut], layer_kv[1, cut]
        return keys, values


class KVCache:
    """Pre-allocated key/value cache: one block of ``capacity`` positions.

    Parameters
    ----------
    config:
        Model configuration (provides layer count, kv width, max length).
    max_seq_len:
        Optional override of the cache capacity (defaults to the model's
        ``max_seq_len``).
    quant:
        How the cached vectors are stored (:class:`KVStorage`'s
        ``quant``).  The byte-accounting statics accept the same spec so
        admission budgets and paged-block sizes shrink to the quantised
        footprint.
    """

    def __init__(
        self,
        config: LlamaConfig,
        max_seq_len: int | None = None,
        quant: Optional[QuantSpec] = None,
    ) -> None:
        self.config = config
        self.capacity = int(
            config.max_seq_len if max_seq_len is None else max_seq_len
        )
        if self.capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.storage = KVStorage(config, 1, self.capacity, quant)
        self.block_table: List[int] = [0]
        #: Number of cached positions.
        self.length = 0

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total allocated cache storage in bytes."""
        return int(self.storage.keys.nbytes + self.storage.values.nbytes)

    @staticmethod
    def bytes_per_position(
        config: LlamaConfig,
        quant: Optional[QuantSpec] = None,
    ) -> int:
        """Cache bytes one token position occupies across all layers:
        float32 vectors, or with a ``quant`` spec group-quantised
        integers plus per-group float32 scales."""
        if quant is not None:
            return int(2 * config.n_layers * quant.storage_bytes(config.kv_dim))
        return int(2 * config.n_layers * config.kv_dim * 4)

    @staticmethod
    def bytes_per_block(
        config: LlamaConfig,
        block_tokens: int,
        quant: Optional[QuantSpec] = None,
    ) -> int:
        """Cache bytes one fixed-size block of token positions occupies.

        The paged KV pool (:mod:`repro.kvpool`) allocates and transfers
        the cache at this granularity; it is also the unit the serving
        engine's HBM traffic accounting rounds attention reads up to.
        """
        if block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        return KVCache.bytes_per_position(config, quant) * block_tokens

    @staticmethod
    def blocks_for(n_positions: int, block_tokens: int) -> int:
        """Blocks of ``block_tokens`` positions covering ``n_positions``."""
        if n_positions < 0:
            raise ValueError("n_positions must be >= 0")
        if block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        return -(-n_positions // block_tokens)

    @classmethod
    def projected_nbytes(
        cls,
        config: LlamaConfig,
        n_positions: int,
        quant: Optional[QuantSpec] = None,
    ) -> int:
        """Storage a cache sized for ``n_positions`` will occupy.

        The batched-serving scheduler reserves this amount against its KV
        memory budget *before* admitting a request, so admission is
        back-pressured by the worst-case footprint (prompt plus the full
        decode budget) rather than the instantaneous one.
        """
        if n_positions < 0:
            raise ValueError("n_positions must be >= 0")
        return cls.bytes_per_position(config, quant) * n_positions

    def reset(self) -> None:
        """Truncate to length 0 without reallocating the buffers.

        Engines recycle one pre-allocated cache across requests by
        resetting it between sequences; stale entries past the new length
        are never read because every view is bounded by ``length``.
        """
        self.length = 0

    def truncate(self, length: int) -> None:
        """Drop cached positions at or past ``length`` (never grows).

        This is the rollback primitive of speculative decoding: a verify
        step writes K+1 positions optimistically and truncates back to
        the last committed one when draft tokens are rejected.  Stale
        entries past the new length are never read (views are bounded by
        ``length``) and the next append simply overwrites them.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        self.length = min(self.length, length)

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def rows(self, length: int) -> np.ndarray:
        """The layer-0 storage rows of positions ``0..length-1``."""
        storage = self.storage
        return (np.array(self.block_table, dtype=np.intp)[:, None] * storage.block_rows
                + np.arange(storage.block_tokens)).ravel()[:length]

    def writable_row(self, pos: int) -> int:
        """The layer-0 storage row ``pos`` is written at."""
        if not 0 <= pos < self.capacity:
            raise IndexError(
                f"position {pos} exceeds cache capacity {self.capacity}"
            )
        block, offset = divmod(pos, self.storage.block_tokens)
        return self.block_table[block] * self.storage.block_rows + offset

    def restore_blocks(self, table: List[int]) -> None:
        """Put back the block table a failed :class:`KVStep` found; a
        private storage's table never changes."""

    # ------------------------------------------------------------------
    # Writes and reads
    # ------------------------------------------------------------------
    def append(self, layer: int, key: np.ndarray, value: np.ndarray, pos: int) -> None:
        """Store the key/value vectors for ``pos`` in ``layer``: a
        one-slot :class:`KVStep`.  The length becomes at least ``pos + 1``
        once the final layer is written."""
        if not 0 <= layer < self.config.n_layers:
            raise IndexError(f"layer {layer} out of range")
        KVStep([self], [pos]).write(layer, np.reshape(key, (1, -1)),
                                    np.reshape(value, (1, -1)))

    def write(self, start: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Store ``[n_layers, n, kv_dim]`` keys and values at positions
        ``start..start+n-1`` of every layer: one :class:`KVStep` write."""
        n = keys.shape[1]
        KVStep([self] * n, range(start, start + n)).write(None, keys, values)

    def read(self, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the keys and values of positions ``0..length-1`` in
        every layer, ``[n_layers, length, kv_dim]``: one gather."""
        at = (self.rows(length)
              + np.arange(self.config.n_layers)[:, None] * self.storage.block_tokens)
        keys, values = self.storage.rows.take(at, axis=1)
        return keys, values

    def keys(self, layer: int, length: int | None = None) -> np.ndarray:
        """Return a view of the cached keys of ``layer`` up to ``length``."""
        length = self.length if length is None else length
        return self.storage.keys[0, layer, :length]

    def values(self, layer: int, length: int | None = None) -> np.ndarray:
        """Return a view of the cached values of ``layer`` up to ``length``."""
        length = self.length if length is None else length
        return self.storage.values[0, layer, :length]
