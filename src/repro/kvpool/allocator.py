"""Fixed-size KV block allocator with refcounts and copy-on-write.

The allocator owns the physical storage for every block in the pool: one
``(n_blocks, n_layers, block_tokens, kv_dim)`` array for keys and one for
values.  A block moves through three states:

* **free** — on the free list, contents meaningless;
* **active** — reference-counted by one or more :class:`~repro.kvpool.
  paged_cache.PagedKVCache` block tables (a refcount above one means the
  block is shared via prefix hits or a fork, and any writer must
  copy-on-write first);
* **cached** — refcount dropped to zero but the block carries a prefix
  tag, so it is parked on an LRU list instead of the free list: a later
  request with the same token prefix can resurrect it without recomputing
  the KV entries, while an allocation that finds the free list empty
  evicts from the LRU end.

Every (re)allocation bumps the block's *version*; stale prefix-index
entries compare versions to detect that a block they point at has been
recycled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from ..llama.config import LlamaConfig
from ..llama.kv_cache import KVCache

__all__ = ["BlockAllocator", "BlockAllocatorError"]


class BlockAllocatorError(RuntimeError):
    """Raised on block bookkeeping violations (double free, bad id)."""


class BlockAllocator:
    """Carves a KV byte budget into fixed-size token blocks.

    Parameters
    ----------
    config:
        Model configuration (layer count and kv width size the blocks).
    capacity_bytes:
        Total KV budget; the block count is ``capacity // bytes_per_block``.
    block_tokens:
        Token positions per block.
    quant:
        Optional KV quantisation spec.  Shrinks ``bytes_per_block`` to
        the group-quantised footprint (so the same budget holds more
        blocks) and fake-quantises vectors on append.  Physical storage
        stays float32 for the NumPy attention kernels — host RAM stands
        in for the quantised HBM blocks.
    """

    def __init__(
        self,
        config: LlamaConfig,
        capacity_bytes: int,
        block_tokens: int = 16,
        quant=None,
    ) -> None:
        if block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        self.config = config
        self.block_tokens = int(block_tokens)
        self.quant = quant
        self.bytes_per_block = KVCache.bytes_per_block(
            config, self.block_tokens, quant
        )
        self.n_blocks = int(capacity_bytes) // self.bytes_per_block
        if self.n_blocks <= 0:
            raise ValueError(
                f"budget of {capacity_bytes} bytes holds no "
                f"{self.bytes_per_block}-byte blocks"
            )
        shape = (self.n_blocks, config.n_layers, self.block_tokens, config.kv_dim)
        self._keys = np.zeros(shape, dtype=np.float32)
        self._values = np.zeros(shape, dtype=np.float32)
        self._free: List[int] = list(range(self.n_blocks - 1, -1, -1))
        self._refcount: Dict[int, int] = {}
        self._version = [0] * self.n_blocks
        self._tag: Dict[int, tuple] = {}
        # Tagged, refcount-0 blocks in LRU order (oldest first = evict first).
        self._cached: "OrderedDict[int, None]" = OrderedDict()
        self.peak_blocks_in_use = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def blocks_in_use(self) -> int:
        """Blocks currently referenced by at least one block table."""
        return len(self._refcount)

    @property
    def n_allocatable(self) -> int:
        """Blocks an allocation could obtain (free plus evictable cached)."""
        return len(self._free) + len(self._cached)

    @property
    def utilization(self) -> float:
        """Fraction of the pool referenced by live block tables."""
        return self.blocks_in_use / self.n_blocks

    def refcount(self, block: int) -> int:
        return self._refcount.get(block, 0)

    def version(self, block: int) -> int:
        self._check_id(block)
        return self._version[block]

    def tag(self, block: int) -> Optional[tuple]:
        return self._tag.get(block)

    def can_allocate(self, n: int) -> bool:
        return n <= self.n_allocatable

    def blocks_for(self, n_positions: int) -> int:
        """Blocks needed to back ``n_positions`` token positions."""
        return KVCache.blocks_for(n_positions, self.block_tokens)

    def _check_id(self, block: int) -> None:
        if not 0 <= block < self.n_blocks:
            raise BlockAllocatorError(f"block id {block} out of range")

    # ------------------------------------------------------------------
    # Allocation / release
    # ------------------------------------------------------------------
    def allocate(self) -> Optional[int]:
        """Take a fresh block (refcount 1); None when the pool is exhausted.

        The free list is preferred; when it is empty the least-recently
        cached tagged block is evicted, which bumps its version so prefix
        index entries pointing at it go stale.
        """
        if self._free:
            block = self._free.pop()
        elif self._cached:
            block, _ = self._cached.popitem(last=False)
            del self._tag[block]
        else:
            return None
        self._version[block] += 1
        self._refcount[block] = 1
        self.peak_blocks_in_use = max(self.peak_blocks_in_use, self.blocks_in_use)
        return block

    def acquire(self, block: int) -> None:
        """Add a reference to an active or cached block (prefix hit/fork)."""
        self._check_id(block)
        if block in self._refcount:
            self._refcount[block] += 1
        elif block in self._cached:
            del self._cached[block]
            self._refcount[block] = 1
            self.peak_blocks_in_use = max(
                self.peak_blocks_in_use, self.blocks_in_use
            )
        else:
            raise BlockAllocatorError(
                f"block {block} is free; only active or cached blocks "
                "can be acquired"
            )

    def release(self, block: int) -> None:
        """Drop one reference; at zero the block is cached or freed."""
        self._check_id(block)
        count = self._refcount.get(block)
        if count is None:
            raise BlockAllocatorError(
                f"releasing block {block} which holds no references "
                "(double release?)"
            )
        if count > 1:
            self._refcount[block] = count - 1
            return
        del self._refcount[block]
        if block in self._tag:
            self._cached[block] = None  # newest LRU entry
        else:
            self._free.append(block)

    # ------------------------------------------------------------------
    # Prefix tagging
    # ------------------------------------------------------------------
    def set_tag(self, block: int, tag: tuple) -> None:
        """Content-address an *active* block (the prefix index key)."""
        self._check_id(block)
        if block not in self._refcount:
            raise BlockAllocatorError(
                f"block {block} is not active; only written blocks can "
                "be tagged"
            )
        self._tag[block] = tag

    def holds(self, block: int, version: int) -> bool:
        """Whether ``block`` still carries the content of ``version``."""
        return (
            0 <= block < self.n_blocks
            and self._version[block] == version
            and (block in self._refcount or block in self._cached)
        )

    # ------------------------------------------------------------------
    # Copy-on-write
    # ------------------------------------------------------------------
    def ensure_exclusive(self, block: int) -> Optional[int]:
        """Return a writable version of ``block`` (copy-on-write).

        A block with a single reference is returned unchanged.  A shared
        block is copied into a fresh block (returns None when no block is
        available) and the caller's reference moves to the copy.  The copy
        carries no tag: its contents are about to diverge from the prefix
        the original caches.
        """
        self._check_id(block)
        if self.refcount(block) == 0:
            raise BlockAllocatorError(f"block {block} is not active")
        if self.refcount(block) == 1:
            return block
        copy = self.allocate()
        if copy is None:
            return None
        self._keys[copy] = self._keys[block]
        self._values[copy] = self._values[block]
        self._refcount[block] -= 1
        return copy

    # ------------------------------------------------------------------
    # Storage views
    # ------------------------------------------------------------------
    def keys(self, block: int) -> np.ndarray:
        """Writable ``(n_layers, block_tokens, kv_dim)`` key storage."""
        self._check_id(block)
        return self._keys[block]

    def values(self, block: int) -> np.ndarray:
        """Writable ``(n_layers, block_tokens, kv_dim)`` value storage."""
        self._check_id(block)
        return self._values[block]
