"""LRU compile cache keyed by bucketed step compositions.

A serving engine compiles one program per batched-step *shape*: the
(padded) context length and logits flag of every slot, plus the
speculative verify-run grouping.  Exact shapes rarely repeat — every
decode step advances every context by one — so the
:class:`~repro.compile.pipeline.StepCompiler` optionally *buckets*
context lengths before it looks a step up: a step is compiled at its
contexts rounded **up** to the next ``ctx_bucket`` boundary, and every
step inside the bucket reuses that program.  Rounding up is conservative
(the simulated step reads at least as many KV bytes as the real one,
exactly like paged block padding) and never touches token values, which
are computed by the functional executor independently of the timing
program.

Each compiler owns one cache, so the composition alone is the key: the
model, shard, quantisation and toggles that shape a program are fixed
for the cache's lifetime.

Counters (hits / misses / evictions) feed the serving report; the
steady-state hit rate is the headline number ``compile-bench`` asserts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable

__all__ = ["CompileCache"]


class CompileCache:
    """Bounded LRU over compiled steps with hit/miss/evict accounting."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any:
        """Look up ``key``; counts a hit or a miss.  None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any) -> Any:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Cached value for ``key``, building (and counting a miss) once."""
        entry = self.get(key)
        if entry is None:
            entry = self.put(key, build())
        return entry

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
