"""Paged KV-cache subsystem: block allocator, prefix sharing, preemption.

The serving engine's original admission policy reserved every request's
*worst-case* KV footprint (prompt plus the full decode budget) up front,
so most of the HBM slice set aside for the cache sat reserved-but-unused.
This package replaces that with vLLM-style paged allocation:

* :class:`BlockAllocator` carves the KV budget into fixed-size token
  blocks with free-list recycling, copy-on-write reference counts, and an
  LRU pool of retired-but-still-tagged blocks that prefix hits can
  resurrect;
* :class:`PagedKVCache` presents the per-request :class:`~repro.llama.
  kv_cache.KVCache` view API but maps logical token positions to physical
  blocks through a block table, so attention reads gather across blocks;
* :class:`PrefixIndex` content-addresses full blocks by the token prefix
  they cache, letting requests that share a prompt prefix map the shared
  positions to the *same* physical blocks and skip prefilling them;
* :class:`KVPool` ties the three together as the scheduler's KV manager;
  :class:`ReservedKV` is its sibling with the same surface, keeping the
  original worst-case reservation (each wins on some workload).

See ``docs/ARCHITECTURE.md`` ("KV memory") for the block-table
diagram and the preemption lifecycle.
"""

from .allocator import BlockAllocator, BlockAllocatorError
from .paged_cache import PagedKVCache
from .pool import KVPool, ReservedKV
from .prefix import PrefixIndex

__all__ = [
    "BlockAllocator",
    "BlockAllocatorError",
    "KVPool",
    "PagedKVCache",
    "PrefixIndex",
    "ReservedKV",
]
