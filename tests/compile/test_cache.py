"""Shape-bucketed compile cache: bucketing, LRU accounting, key safety.

The key-correctness tests are property-based (seeded random sampling, no
external dependency): cache keys are built exactly the way the
:class:`~repro.compile.pipeline.StepCompiler` builds them, and the
properties assert the two directions of correctness — compositions in
one bucket *reuse* one program, and views whose compile signature
differs (shard layout, quantization, bucketing policy) *never* collide
no matter what shape tuples they serve.
"""

from __future__ import annotations

import random

import pytest

from repro.accel.config import AcceleratorConfig
from repro.compile import CompileCache, ShapeBucketSpec, compile_signature
from repro.graph.sharding import ShardSpec
from repro.llama.config import preset


class TestShapeBucketSpec:
    def test_granularity_one_is_exact(self):
        spec = ShapeBucketSpec(granularity=1)
        for ctx in (0, 1, 13, 255):
            assert spec.bucket_context(ctx, 256) == ctx

    def test_windows_round_up_to_bucket_boundary(self):
        spec = ShapeBucketSpec(granularity=32)
        # Window = ctx + 1 positions, rounded up, returned as a context.
        assert spec.bucket_context(0, 256) == 31
        assert spec.bucket_context(31, 256) == 31
        assert spec.bucket_context(32, 256) == 63
        assert spec.bucket_context(100, 256) == 127

    def test_bucket_clamped_to_model_window(self):
        spec = ShapeBucketSpec(granularity=32)
        assert spec.bucket_context(250, 256) == 255
        assert spec.bucket_context(255, 256) == 255

    def test_bucketing_is_monotone_and_idempotent(self):
        spec = ShapeBucketSpec(granularity=16)
        previous = -1
        for ctx in range(0, 256):
            bucket = spec.bucket_context(ctx, 256)
            assert bucket >= ctx
            assert bucket >= previous
            assert spec.bucket_context(bucket, 256) == bucket
            previous = bucket

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapeBucketSpec(granularity=0)
        with pytest.raises(ValueError):
            ShapeBucketSpec(granularity=4).bucket_context(-1, 64)

    def test_bucket_contexts_maps_each_slot(self):
        spec = ShapeBucketSpec(granularity=8)
        assert spec.bucket_contexts((3, 9, 20), 64) == (7, 15, 23)


class TestCompileCache:
    def test_hit_miss_accounting(self):
        cache = CompileCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_get_or_build_builds_once(self):
        cache = CompileCache()
        built = []

        def build():
            built.append(1)
            return object()

        first = cache.get_or_build("k", build)
        second = cache.get_or_build("k", build)
        assert first is second
        assert built == [1]

    def test_lru_eviction_evicts_least_recent(self):
        cache = CompileCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # 'b' is now least recently used
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_unbounded_cache(self):
        cache = CompileCache(capacity=None)
        for i in range(2000):
            cache.put(i, i)
        assert len(cache) == 2000
        assert cache.evictions == 0

    def test_stats_keys(self):
        stats = CompileCache(capacity=8).stats()
        assert set(stats) == {"entries", "capacity", "hits", "misses",
                              "evictions", "hit_rate"}


def _step_key(signature, buckets, max_seq_len, contexts, logits, runs=None):
    """A cache key built the way StepCompiler.compile_step builds it."""
    return (signature, buckets.bucket_contexts(contexts, max_seq_len),
            tuple(bool(flag) for flag in logits),
            tuple(runs) if runs is not None else None)


class TestKeyProperties:
    """Seeded property tests over randomly drawn step compositions."""

    def _random_composition(self, rng, max_seq_len):
        n = rng.randint(1, 6)
        contexts = tuple(rng.randrange(0, max_seq_len) for _ in range(n))
        logits = tuple(rng.random() < 0.8 for _ in range(n))
        return contexts, logits

    def test_same_bucket_compositions_share_one_program(self):
        """Compositions that bucket identically must produce cache hits."""
        rng = random.Random(1234)
        model = preset("stories15M")
        config = AcceleratorConfig.variant("full").replace(ctx_bucket=32)
        signature = compile_signature(model, config)
        buckets = ShapeBucketSpec(config.ctx_bucket)
        cache = CompileCache()
        for _ in range(300):
            contexts, logits = self._random_composition(rng, model.max_seq_len)
            key = _step_key(signature, buckets, model.max_seq_len,
                            contexts, logits)
            first = cache.get_or_build(key, object)
            # Jitter every context within its bucket: same key, same entry.
            jittered = tuple(
                rng.randint(max(0, b - config.ctx_bucket + 1), b)
                for b in buckets.bucket_contexts(contexts, model.max_seq_len)
            )
            jitter_key = _step_key(signature, buckets, model.max_seq_len,
                                   jittered, logits)
            assert cache.get_or_build(jitter_key, object) is first

    def test_distinct_views_never_collide(self):
        """Signatures differing in shard/quantization/bucketing isolate keys.

        Every (view, composition) pair maps to a unique key unless the
        views are identical AND the bucketed compositions agree — a
        collision would hand one timing view another view's program.
        """
        rng = random.Random(987)
        model = preset("stories15M")
        base = AcceleratorConfig.variant("full")
        shard = ShardSpec.from_config(model, tp=2)
        views = [
            ("full", base, None),
            ("int4", base.replace(weight_bits=4), None),
            ("no-fusion", base.replace(operator_fusion=False), None),
            ("bucketed", base.replace(ctx_bucket=32), None),
            ("autotuned", base.replace(autotune_tiling=True), None),
            ("tp2", base, shard),
        ]
        signatures = [compile_signature(model, cfg, shard=s)
                      for _, cfg, s in views]
        assert len(set(signatures)) == len(views), \
            "every view must have a distinct compile signature"
        seen = {}
        for _ in range(200):
            contexts, logits = self._random_composition(rng, model.max_seq_len)
            for (name, cfg, _s), signature in zip(views, signatures):
                buckets = ShapeBucketSpec(cfg.ctx_bucket)
                key = _step_key(signature, buckets, model.max_seq_len,
                                contexts, logits)
                owner = (name,
                         buckets.bucket_contexts(contexts, model.max_seq_len),
                         logits)
                assert seen.setdefault(key, owner) == owner, \
                    f"key collision between views {seen[key]} and {owner}"

    def test_speculative_run_grouping_joins_the_key(self):
        """Identical compositions with different verify-run groupings must
        compile distinct programs (the merger fuses per run)."""
        model = preset("stories15M")
        config = AcceleratorConfig.variant("full")
        signature = compile_signature(model, config)
        buckets = ShapeBucketSpec(1)
        contexts, logits = (10, 10, 10), (True, True, True)
        plain = _step_key(signature, buckets, model.max_seq_len,
                          contexts, logits)
        one_run = _step_key(signature, buckets, model.max_seq_len,
                            contexts, logits, runs=(5, 5, 5))
        two_runs = _step_key(signature, buckets, model.max_seq_len,
                             contexts, logits, runs=(5, 5, 6))
        assert len({plain, one_run, two_runs}) == 3
