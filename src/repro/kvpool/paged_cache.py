"""Per-request KV cache view over pooled physical blocks.

:class:`PagedKVCache` presents the same API the functional executor and
the serving engine already use on :class:`~repro.llama.kv_cache.KVCache`
(``append`` / ``keys`` / ``values`` / ``view`` / ``length`` /
``capacity`` / ``reset``), but the storage behind logical position ``p``
is row ``p % block_tokens`` of physical block ``table[p // block_tokens]``
in the shared :class:`~repro.kvpool.allocator.BlockAllocator`.  Attention
reads gather the logical window across blocks into a contiguous array, so
the numerics are bit-identical to a flat cache.

Capacity is *logical* (the model's context window); physical blocks are
attached on demand through :meth:`ensure_capacity`, which is where
allocation can fail — the scheduler turns that failure into preemption.
Appending into a position whose backing block is shared (prefix hit or
:meth:`fork`) transparently copies-on-write first.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..llama.config import LlamaConfig
from ..llama.kv_cache import KVCache, fake_quant_kv
from .allocator import BlockAllocator, BlockAllocatorError

__all__ = ["PagedKVCache"]


class PagedKVCache:
    """Block-table KV cache drawing physical storage from a shared pool."""

    def __init__(
        self,
        allocator: BlockAllocator,
        max_seq_len: Optional[int] = None,
    ) -> None:
        self.allocator = allocator
        self.config: LlamaConfig = allocator.config
        self.block_tokens = allocator.block_tokens
        self.capacity = int(
            self.config.max_seq_len if max_seq_len is None else max_seq_len
        )
        if self.capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.block_table: List[int] = []
        self._length = 0

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of cached positions."""
        return self._length

    @property
    def n_blocks(self) -> int:
        return len(self.block_table)

    @property
    def nbytes(self) -> int:
        """Physical bytes currently attached to this sequence."""
        return self.n_blocks * self.allocator.bytes_per_block

    def used_nbytes(self) -> int:
        """Bytes of cache actually occupied by cached tokens."""
        return (
            KVCache.bytes_per_position(self.config, self.allocator.quant)
            * self._length
        )

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------
    def ensure_capacity(self, n_positions: int) -> bool:
        """Attach blocks (and un-share writable ones) for ``n_positions``.

        After a True return, ``append`` for every position below
        ``n_positions`` is guaranteed not to need allocation: missing tail
        blocks are attached and every block covering the *writable* region
        (positions at or past the current length) is made exclusive.
        Returns False — leaving the table consistent — when the pool
        cannot supply a block; the caller decides whether to preempt.
        """
        if n_positions > self.capacity:
            raise ValueError(
                f"{n_positions} positions exceed the logical capacity "
                f"{self.capacity}"
            )
        needed = self.allocator.blocks_for(n_positions)
        while len(self.block_table) < needed:
            block = self.allocator.allocate()
            if block is None:
                return False
            self.block_table.append(block)
        # Copy-on-write the blocks that are about to be written: those
        # covering positions >= length (the tail block may be shared after
        # a fork; prefix-hit blocks are always full and stay read-only).
        first_writable = self._length // self.block_tokens
        for idx in range(first_writable, needed):
            block = self.block_table[idx]
            exclusive = self.allocator.ensure_exclusive(block)
            if exclusive is None:
                return False
            self.block_table[idx] = exclusive
        return True

    def adopt_prefix(self, blocks: Sequence[int]) -> None:
        """Map the first ``len(blocks)`` logical blocks to shared blocks.

        The adopted blocks must be full (the prefix index only hands out
        full blocks) and the cache must be empty; each one's refcount is
        bumped and the cache length jumps past the shared positions — the
        prefill skips them entirely.
        """
        if self._length or self.block_table:
            raise BlockAllocatorError(
                "prefix blocks can only be adopted into an empty cache"
            )
        for block in blocks:
            self.allocator.acquire(block)
            self.block_table.append(block)
        self._length = len(self.block_table) * self.block_tokens

    def fork(self) -> "PagedKVCache":
        """A new sequence sharing every current block copy-on-write.

        Both caches may keep appending: the first write into a shared
        block copies it.  This is the building block for beam-style and
        parallel-sampling decoding.
        """
        child = PagedKVCache(self.allocator, max_seq_len=self.capacity)
        for block in self.block_table:
            self.allocator.acquire(block)
            child.block_table.append(block)
        child._length = self._length
        return child

    def release(self) -> None:
        """Return every block reference to the pool.

        Idempotent because the block table empties on the first call; a
        cache that re-attaches blocks afterwards (the append fallback)
        simply releases them again on the next call.
        """
        self.reset()

    def reset(self) -> None:
        """Truncate to length 0, returning the blocks to the pool.

        Unlike the flat cache, truncation gives the storage back: pooled
        blocks belong to whichever sequence needs them next.  The cache
        itself stays usable — the next append re-attaches blocks.
        """
        self.truncate(0)

    def truncate(self, length: int) -> None:
        """Drop cached positions at or past ``length``, freeing tail blocks.

        The rollback primitive of speculative decoding: whole blocks past
        the last kept position return to the pool, the partially-kept
        block (if any) stays attached, and the logical length shrinks
        (never grows).  Each dropped block reference is released exactly
        once — the ids leave the block table *before* their release, so a
        re-entrant or repeated truncate can never double-release a block
        this cache shares with a fork or a prefix hit (the sharer's
        reference keeps the block alive; only this cache's claim is
        dropped).  Stale rows inside the kept tail block are never read
        (gathers are bounded by ``length``) and a later append into a
        still-shared block copies-on-write as usual.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        keep = self.allocator.blocks_for(length)
        if keep < len(self.block_table):
            dropped = self.block_table[keep:]
            del self.block_table[keep:]
            for block in dropped:
                self.allocator.release(block)
        self._length = min(self._length, length)

    # ------------------------------------------------------------------
    # KVCache view API
    # ------------------------------------------------------------------
    def append(self, layer: int, key: np.ndarray, value: np.ndarray, pos: int) -> None:
        """Store the key/value vectors for ``pos`` in ``layer``."""
        if not 0 <= layer < self.config.n_layers:
            raise IndexError(f"layer {layer} out of range")
        if not 0 <= pos < self.capacity:
            raise IndexError(
                f"position {pos} exceeds cache capacity {self.capacity}"
            )
        block_idx = pos // self.block_tokens
        if block_idx >= len(self.block_table):
            # Allocation normally happens up front in ensure_capacity;
            # this fallback keeps direct use (tests, notebooks) working
            # without the scheduler.
            if not self.ensure_capacity(pos + 1):
                raise BlockAllocatorError(
                    f"no block available for position {pos}"
                )
        block = self.block_table[block_idx]
        if self.allocator.refcount(block) > 1:
            # Copy-on-write the exact block being written — ensure_capacity
            # only un-shares the tail region, and rewrites below the
            # current length (a forked sequence editing history) must not
            # leak into the sharers.
            exclusive = self.allocator.ensure_exclusive(block)
            if exclusive is None:
                raise BlockAllocatorError(
                    f"no block available to copy-on-write position {pos}"
                )
            self.block_table[block_idx] = exclusive
            block = exclusive
        offset = pos % self.block_tokens
        key = np.asarray(key, dtype=np.float32).reshape(self.config.kv_dim)
        value = np.asarray(value, dtype=np.float32).reshape(self.config.kv_dim)
        if self.allocator.quant is not None:
            # Mirroring the flat cache: reads see the int8 encoding's
            # error regardless of paging.
            key, value = fake_quant_kv(key, value, self.allocator.quant)
        self.allocator.keys(block)[layer, offset] = key
        self.allocator.values(block)[layer, offset] = value
        if layer == self.config.n_layers - 1:
            self._length = max(self._length, pos + 1)

    def _gather(self, storage, layer: int, length: int) -> np.ndarray:
        if length == 0:
            return np.zeros((0, self.config.kv_dim), dtype=np.float32)
        n_full, tail = divmod(length, self.block_tokens)
        parts = [storage(self.block_table[i])[layer]
                 for i in range(n_full)]
        if tail:
            parts.append(storage(self.block_table[n_full])[layer, :tail])
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=0)

    def keys(self, layer: int, length: int | None = None) -> np.ndarray:
        """Gather the cached keys of ``layer`` up to ``length``."""
        length = self._length if length is None else length
        return self._gather(self.allocator.keys, layer, length)

    def values(self, layer: int, length: int | None = None) -> np.ndarray:
        """Gather the cached values of ``layer`` up to ``length``."""
        length = self._length if length is None else length
        return self._gather(self.allocator.values, layer, length)

    def view(self, layer: int, length: int | None = None) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(keys, values)`` for attention in ``layer``."""
        return self.keys(layer, length), self.values(layer, length)
