"""The two KV managers a scheduler can hold, behind one surface.

A scheduler owns exactly one manager and never asks which: both answer
``block_tokens``, ``utilization``, ``never_fits``, ``claim``, ``grow``,
``register_prefix``, ``release`` and ``cached_positions``.

* :class:`ReservedKV` reserves every request's *worst-case* footprint
  up front and gives it a private dense cache: nothing is shared,
  nothing grows, nothing is ever preempted.
* :class:`KVPool` carves the same budget into blocks: a claim covers the
  prompt only (minus any cached prefix), decode blocks are attached step
  by step through ``grow`` — the one call that can fail mid-flight, which
  the scheduler answers with preemption — and retired prefill blocks
  stay discoverable for later prompts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..llama.config import LlamaConfig
from ..llama.kv_cache import KVCache
from .allocator import BlockAllocator, BlockAllocatorError
from .paged_cache import PagedKVCache
from .prefix import PrefixIndex

__all__ = ["KVPool", "ReservedKV"]


class ReservedKV:
    """Worst-case byte reservations over one device's KV budget."""

    #: Dense caches have no block granularity (KV reads are not padded).
    block_tokens: Optional[int] = None

    def __init__(
        self,
        config: LlamaConfig,
        capacity_bytes: int,
        shards: int = 1,
        quant=None,
    ) -> None:
        """``capacity_bytes`` is the budget of **one** device; with
        ``shards`` tensor-parallel devices each stores ``1 / shards`` of
        every position, so a footprint is charged at that fraction."""
        if shards <= 0:
            raise ValueError("shards must be positive")
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.config = config
        self.shards = shards
        self.quant = quant
        self.capacity_bytes = int(capacity_bytes)
        self.reserved_bytes = 0
        # The caches whose reservation is held, by identity.
        self._held: Dict[int, KVCache] = {}

    @property
    def utilization(self) -> float:
        """Fraction of the budget reserved right now."""
        return self.reserved_bytes / self.capacity_bytes

    def footprint(self, n_positions: int) -> int:
        """KV bytes ``n_positions`` cached positions occupy on one shard."""
        nbytes = KVCache.projected_nbytes(
            self.config, n_positions, quant=self.quant)
        return -(-nbytes // self.shards)

    def never_fits(self, n_positions: int) -> Optional[str]:
        """Why ``n_positions`` exceed the whole budget, or None if not."""
        needed = self.footprint(n_positions)
        if needed <= self.capacity_bytes:
            return None
        return f"needs {needed} KV bytes but the budget is {self.capacity_bytes}"

    def claim(
        self, tokens: Sequence[int], worst_case_positions: int,
        others_running: bool,
    ) -> Optional[Tuple[KVCache, int]]:
        """Reserve the worst case; ``(cache, 0)`` or None when it does
        not fit next to the reservations already held."""
        needed = self.footprint(worst_case_positions)
        if needed > self.capacity_bytes - self.reserved_bytes:
            return None
        self.reserved_bytes += needed
        cache = KVCache(self.config, max_seq_len=worst_case_positions,
                        quant=self.quant)
        self._held[id(cache)] = cache
        return cache, 0

    def grow(self, cache: KVCache, n_positions: int) -> bool:
        return True  # the claim already covers every position

    def register_prefix(self, tokens, cache, limit: int) -> int:
        return 0  # private caches are never shared

    def release(self, cache: KVCache) -> None:
        """Return ``cache``'s reservation — its size is a function of
        the capacity it was claimed with.  A cache this manager does not
        hold — never claimed here, or released already — is refused."""
        if self._held.get(id(cache)) is not cache:
            raise BlockAllocatorError(
                "release of a KV cache whose reservation is not held "
                "(released twice, or claimed elsewhere)")
        del self._held[id(cache)]
        self.reserved_bytes -= self.footprint(cache.capacity)

    def cached_positions(self, tokens: Sequence[int]) -> int:
        return 0


class KVPool:
    """Shared paged KV memory for one serving engine."""

    def __init__(
        self,
        config: LlamaConfig,
        capacity_bytes: int,
        block_tokens: int = 16,
        watermark_fraction: float = 0.05,
        shards: int = 1,
        quant=None,
    ) -> None:
        """``capacity_bytes`` is the KV budget of **one** accelerator.

        With tensor-parallel sharding (``shards > 1``) every cached
        position is split across shards, so each shard's budget covers
        ``shards`` times more positions: the pool holds
        ``capacity_bytes * shards // bytes_per_block`` full-width blocks.
        The physical storage stays full-width because the functional
        executor reads complete KV vectors — host RAM here stands in for
        the *aggregate* HBM of all shards.
        """
        if not 0.0 <= watermark_fraction < 1.0:
            raise ValueError("watermark_fraction must be in [0, 1)")
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.config = config
        self.shards = shards
        self.allocator = BlockAllocator(
            config, capacity_bytes * shards, block_tokens, quant
        )
        self.index = PrefixIndex(self.allocator)
        self.block_tokens = self.allocator.block_tokens
        #: Blocks kept unallocated at admission so running requests can
        #: keep appending without immediately forcing a preemption.
        self.watermark_blocks = int(
            watermark_fraction * self.allocator.n_blocks
        )

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return self.allocator.n_blocks

    @property
    def n_allocatable(self) -> int:
        return self.allocator.n_allocatable

    @property
    def utilization(self) -> float:
        return self.allocator.utilization

    def blocks_for(self, n_positions: int) -> int:
        return self.allocator.blocks_for(n_positions)

    def never_fits(self, n_positions: int) -> Optional[str]:
        """Why ``n_positions`` exceed the whole pool, or None if not."""
        needed = self.blocks_for(n_positions)
        if needed <= self.n_blocks:
            return None
        return f"needs {needed} KV blocks but the pool holds {self.n_blocks}"

    # ------------------------------------------------------------------
    def claim(
        self, tokens: Sequence[int], worst_case_positions: int,
        others_running: bool,
    ) -> Optional[Tuple[PagedKVCache, int]]:
        """Blocks for ``tokens`` now, the rest on demand via :meth:`grow`.

        Any cached full-block prefix of ``tokens`` is mapped in place;
        free blocks are required only for the remainder plus the
        watermark — waived when nothing else is running, so a lone
        request can always start.  Returns the cache and the number of
        leading positions it already holds, or None when the pool
        cannot cover the claim right now.
        """
        matched = self.match_prefix(tokens)
        new_blocks = self.blocks_for(len(tokens)) - len(matched)
        headroom = self.watermark_blocks if others_running else 0
        # Matched blocks parked on the reusable LRU list still count as
        # allocatable until adopt_prefix revives them, so the gate must
        # cover them too or the claim below could come up short.
        cached_matched = sum(
            1 for block in matched if self.allocator.refcount(block) == 0
        )
        if not self.allocator.can_allocate(
            new_blocks + cached_matched + headroom
        ):
            return None
        cache = self.new_cache()
        cache.adopt_prefix(matched)
        hit = cache.length
        # Claim every block of ``tokens`` now: they are written over the
        # next steps, and two claims must not count the same free blocks.
        if not cache.ensure_capacity(len(tokens)):
            cache.release()
            return None
        return cache, hit

    def grow(self, cache: PagedKVCache, n_positions: int) -> bool:
        """Back ``cache``'s first ``n_positions`` with blocks; False when
        the pool is dry (the scheduler decides whether to preempt)."""
        return cache.ensure_capacity(n_positions)

    def release(self, cache: PagedKVCache) -> None:
        """Drop ``cache``'s block references (idempotent); blocks it
        registered stay cached for prefix hits until evicted."""
        cache.release()

    def cached_positions(self, tokens: Sequence[int]) -> int:
        """Leading positions of ``tokens`` a claim would find cached."""
        return len(self.match_prefix(tokens)) * self.block_tokens

    def new_cache(self, max_seq_len: Optional[int] = None) -> PagedKVCache:
        """A fresh, empty per-request cache view over this pool."""
        return PagedKVCache(self.allocator, max_seq_len=max_seq_len)

    def match_prefix(self, tokens: Sequence[int]) -> List[int]:
        """Physical blocks already caching a full-block prefix of ``tokens``.

        The chain is capped one position short of ``len(tokens)`` so the
        final prompt position always executes — its logits seed decoding.
        """
        matched = self.index.match(tokens)
        max_full_blocks = (len(tokens) - 1) // self.block_tokens
        return matched[:max_full_blocks]

    def register_prefix(
        self,
        tokens: Sequence[int],
        cache: PagedKVCache,
        limit: int,
    ) -> int:
        """Index ``cache``'s blocks whose positions are fully written.

        ``limit`` is the number of leading positions of ``tokens`` whose
        KV entries are complete in ``cache`` (typically the request's
        ``next_pos`` capped to its prefill length).
        """
        n_full = min(limit, len(tokens)) // self.block_tokens
        if n_full <= 0:
            return 0
        return self.index.register(
            list(tokens[: n_full * self.block_tokens]),
            cache.block_table[:n_full],
        )
