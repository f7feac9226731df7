"""Shape-bucketed compile cache keyed by padded step compositions.

A serving engine compiles one program per batched-step *shape*: the
(padded) context length and logits flag of every slot, plus the
speculative verify-run grouping.  Exact shapes rarely repeat — every
decode step advances every context by one — so the cache optionally
*buckets* context lengths: a step is compiled at its contexts rounded
**up** to the next bucket boundary, and every step inside the bucket
reuses that program.  Rounding up is conservative (the simulated step
reads at least as many KV bytes as the real one, exactly like paged
block padding) and never touches token values, which are computed by the
functional executor independently of the timing program.

Cache keys prepend a *compile signature* — model dimensions, shard
layout, quantization and tiling mode — so two timing views that happen
to share a bucketed composition can never collide: a TP=2 shard's
program, an int4 datapath's program and the full model's program live
under distinct keys by construction.

Counters (hits / misses / evictions) feed the serving report; the
steady-state hit rate is the headline number ``compile-bench`` asserts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple

from ..accel.batching import block_padded_context
from ..accel.config import AcceleratorConfig
from ..graph.sharding import ShardSpec
from ..llama.config import LlamaConfig

__all__ = ["ShapeBucketSpec", "CompileCache", "compile_signature"]


@dataclass(frozen=True)
class ShapeBucketSpec:
    """Context-length bucketing policy of the compile cache.

    ``granularity=1`` keeps exact keys (the historical behaviour: every
    distinct composition compiles its own program).  Larger granularity
    rounds each context's attention *window* up to a whole multiple, so
    all positions inside one bucket share a compiled program.
    """

    granularity: int = 1

    def __post_init__(self) -> None:
        if self.granularity < 1:
            raise ValueError("bucket granularity must be >= 1")

    def bucket_context(self, context_len: int, max_seq_len: int) -> int:
        """Context length at the top of ``context_len``'s bucket.

        The attention window (``context_len + 1`` positions) is rounded
        up to the bucket boundary and clamped to the model's context
        window — :func:`~repro.accel.batching.block_padded_context`, the
        conservative padding paged KV serving applies, at the bucket
        granularity.
        """
        return block_padded_context(context_len, self.granularity, max_seq_len)

    def bucket_contexts(
        self, context_lens: Sequence[int], max_seq_len: int
    ) -> Tuple[int, ...]:
        return tuple(self.bucket_context(ctx, max_seq_len)
                     for ctx in context_lens)


def compile_signature(
    model_config: LlamaConfig,
    config: AcceleratorConfig,
    shard: Optional[ShardSpec] = None,
) -> Tuple:
    """The identity of one timing view's compiled programs.

    Everything that changes what a compiled program *is* — model
    dimensions, shard layout, quantization, the optimization toggles the
    compiler branches on, and the tiling mode — joins the signature, so
    cache keys from different views can never collide even if their
    bucketed shape tuples are equal.
    """
    shard_sig = None
    if shard is not None:
        shard_sig = (shard.tp, shard.n_heads, shard.n_kv_heads,
                     shard.head_dim, shard.hidden, shard.vocab)
    return (
        model_config.name,
        model_config.dim,
        model_config.n_layers,
        model_config.n_heads,
        model_config.n_kv_heads,
        model_config.vocab_size,
        model_config.max_seq_len,
        config.weight_bits,
        config.pipeline,
        config.memory_reuse,
        config.operator_fusion,
        config.mpe.rows,
        config.mpe.cols,
        config.mpe.pipeline_depth,
        config.buffers.n_segments,
        config.buffers.segment_kb,
        config.hbm_stripe,
        config.autotune_tiling,
        config.ctx_bucket,
        shard_sig,
        config.quant.signature() if config.quant is not None else None,
    )


class CompileCache:
    """Bounded LRU over compiled steps with hit/miss/evict accounting."""

    def __init__(self, capacity: Optional[int] = 1024) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
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
        if self.capacity is not None:
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
