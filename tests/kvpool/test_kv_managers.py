"""One contract, both KV managers (repro.kvpool.ReservedKV / KVPool).

The scheduler holds either manager through the same eight names and
never asks which, so every property here is stated once and checked
against both — across shard counts and KV quantisation, which change
what a position costs but not what the surface promises.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.kvpool import BlockAllocatorError, KVPool, ReservedKV
from repro.llama.kv_cache import KVCache
from repro.llama.quantization import INT8

BLOCK = 4
N_BLOCKS = 3  # a budget of a few blocks: 12 positions per shard

MANAGERS = [
    pytest.param(kind, shards, quant,
                 id=f"{kind}-tp{shards}-{'int8' if quant else 'fp32'}")
    for kind in ("reserved", "paged")
    for shards in (1, 2)
    for quant in (None, INT8)
]


def build(config, kind, shards, quant):
    capacity = N_BLOCKS * KVCache.bytes_per_block(config, BLOCK, quant=quant)
    if kind == "reserved":
        return ReservedKV(config, capacity, shards=shards, quant=quant)
    return KVPool(config, capacity, block_tokens=BLOCK,
                  watermark_fraction=0.2, shards=shards, quant=quant)


@pytest.mark.parametrize("kind,shards,quant", MANAGERS)
class TestOneContract:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_walk_stays_inside_the_budget(self, micro_config, kind,
                                                 shards, quant, seed):
        manager = build(micro_config, kind, shards, quant)
        rng = random.Random(seed)
        fresh = itertools.count()  # distinct tokens: no prefix sharing
        budget_positions = N_BLOCKS * BLOCK * shards
        #: cache -> [positions the manager has promised it, worst case]
        live = {}
        for _ in range(300):
            action = rng.choice(("claim", "claim", "grow", "release"))
            if action == "claim":
                n_prompt = rng.randint(1, 8)
                worst = min(n_prompt + rng.randint(1, 8),
                            micro_config.max_seq_len)
                claim = manager.claim(
                    [next(fresh) for _ in range(n_prompt)], worst, bool(live))
                if claim is not None:
                    cache, hit = claim
                    assert hit == 0
                    live[cache] = [n_prompt, worst]
            elif action == "grow" and live:
                cache = rng.choice(list(live))
                promised, worst = live[cache]
                n = rng.randint(promised, worst)
                if manager.grow(cache, n):
                    live[cache][0] = n
            elif action == "release" and live:
                cache = rng.choice(list(live))
                manager.release(cache)
                del live[cache]
            assert 0.0 <= manager.utilization <= 1.0
            assert sum(p for p, _ in live.values()) <= budget_positions
            if not live:
                assert manager.utilization == 0.0
        for cache in live:
            manager.release(cache)
        assert manager.utilization == 0.0

    def test_never_fits_is_exactly_a_lone_claim_failing(self, micro_config,
                                                        kind, shards, quant):
        verdicts = set()
        for n in range(1, micro_config.max_seq_len + 1):
            manager = build(micro_config, kind, shards, quant)
            fits = manager.claim(list(range(n)), n, False) is not None
            assert (manager.never_fits(n) is None) == fits
            verdicts.add(fits)
        # The budget is smaller than the context window: both verdicts occur.
        assert verdicts == {True, False}

    def test_double_release_never_frees_capacity_twice(self, micro_config,
                                                       kind, shards, quant):
        manager = build(micro_config, kind, shards, quant)
        cache, _ = manager.claim([1, 2, 3], BLOCK, False)
        manager.release(cache)
        try:
            manager.release(cache)
        except BlockAllocatorError:
            pass  # the reservation ledger refuses; the pool ignores it
        assert manager.utilization == 0.0
        # Exactly one budget's worth is claimable afterwards.
        full = N_BLOCKS * BLOCK * shards
        assert manager.claim(list(range(10, 10 + full)), full, False)
        assert manager.claim([99], 1, False) is None

    def test_cached_positions_are_whole_blocks(self, micro_config, kind,
                                               shards, quant):
        manager = build(micro_config, kind, shards, quant)
        tokens = list(range(40, 40 + 2 * BLOCK + 1))
        assert manager.cached_positions(tokens) == 0
        cache, _ = manager.claim(tokens, len(tokens), False)
        manager.register_prefix(tokens, cache, len(tokens))
        cached = manager.cached_positions(tokens)
        if kind == "reserved":
            assert manager.block_tokens is None
            assert cached == 0
        else:
            assert manager.block_tokens == BLOCK
            assert cached == 2 * BLOCK
            # They outlive their writer: a later claim of the same
            # prompt revives exactly those positions.
            manager.release(cache)
            assert manager.claim(tokens, len(tokens), False)[1] == cached


class TestReservedKVHolds:
    """The reservation ledger counts bytes, so on its own it cannot tell
    a second release of one cache from the release of another cache of
    the same size; the manager tracks which caches it holds."""

    def test_a_double_release_leaves_the_other_reservation_held(self, small_config):
        manager = ReservedKV(small_config, 1 << 20)
        first, _ = manager.claim([1, 2], 32, False)
        second, _ = manager.claim([3, 4], 32, False)
        assert manager.footprint(32) == 24_576
        manager.release(first)
        with pytest.raises(BlockAllocatorError, match="not held"):
            manager.release(first)
        assert manager.reserved_bytes == 24_576
        manager.release(second)
        assert manager.reserved_bytes == 0

    def test_a_cache_claimed_elsewhere_is_refused(self, small_config):
        mine, theirs = (ReservedKV(small_config, 1 << 20) for _ in range(2))
        mine.claim([1], 32, False)
        cache, _ = theirs.claim([1], 32, False)
        with pytest.raises(BlockAllocatorError, match="not held"):
            mine.release(cache)
        assert mine.reserved_bytes == 24_576
