"""Compile cache: LRU accounting, context bucketing, and step keys through
the compiler.

The key-correctness tests are property-based (seeded random sampling, no
external dependency) and go through
:meth:`~repro.compile.pipeline.StepCompiler.compile_step` itself: they
assert the two directions of correctness — compositions in one bucket
*reuse* one compiled step, and compilers for different timing views
(shard layout, quantization, fusion) *never* hand out one another's.
"""

from __future__ import annotations

import random

import pytest

from repro.accel.config import AcceleratorConfig
from repro.compile import CompileCache, StepCompiler
from repro.fpga import u280
from repro.graph.sharding import ShardSpec
from repro.llama.config import preset
from repro.quant import QuantConfig


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

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)

    def test_stats_keys(self):
        stats = CompileCache(capacity=8).stats()
        assert set(stats) == {"entries", "capacity", "hits", "misses",
                              "evictions", "hit_rate"}


def _compiler(config=None, shard=None, model="test-small"):
    return StepCompiler(preset(model), config or AcceleratorConfig(), u280(),
                        shard=shard)


def _bucketed(bucket, model="test-small"):
    return _compiler(AcceleratorConfig(ctx_bucket=bucket), model=model)


class TestBucketing:
    """``ctx_bucket`` rounds each slot's window up, clamped to the model's."""

    def test_bucket_one_is_exact(self):
        compiler = _bucketed(1)
        for ctx in (0, 1, 13, 63):
            assert compiler.compile_step((ctx,)).contexts == (ctx,)

    def test_windows_round_up_to_bucket_boundary(self):
        compiler = _bucketed(32, model="stories15M")
        # Window = ctx + 1 positions, rounded up, returned as a context.
        for ctx, bucket in ((0, 31), (31, 31), (32, 63), (100, 127)):
            assert compiler.compile_step((ctx,)).contexts == (bucket,)

    def test_bucket_clamped_to_model_window(self):
        compiler = _bucketed(32, model="stories15M")
        assert compiler.compile_step((250,)).contexts == (255,)
        assert compiler.compile_step((255,)) is compiler.compile_step((250,))

    def test_bucketing_is_monotone_and_idempotent(self):
        compiler = _bucketed(16)
        previous = -1
        for ctx in range(compiler.model_config.max_seq_len):
            step = compiler.compile_step((ctx,))
            (bucket,) = step.contexts
            assert bucket >= ctx
            assert bucket >= previous
            assert compiler.compile_step((bucket,)) is step
            previous = bucket
        assert compiler.cache.misses == 4

    def test_bucket_must_be_positive(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(ctx_bucket=0)
        with pytest.raises(ValueError):
            _bucketed(4).compile_step((-1,))

    def test_each_slot_is_bucketed_on_its_own(self):
        step = _bucketed(8).compile_step((3, 9, 20))
        assert step.contexts == (7, 15, 23)


def _random_composition(rng, max_seq_len):
    n = rng.randint(1, 6)
    contexts = tuple(rng.randrange(0, max_seq_len) for _ in range(n))
    logits = tuple(rng.random() < 0.8 for _ in range(n))
    return contexts, logits


class TestStepKeys:
    """Seeded property tests over randomly drawn step compositions."""

    def test_contexts_round_up_to_the_bucket_and_clamp(self):
        assert _compiler().compile_step((0, 13, 63)).contexts == (0, 13, 63)
        bucketed = _compiler(AcceleratorConfig(ctx_bucket=16))
        # Window = ctx + 1 positions, rounded up, returned as a context.
        assert bucketed.compile_step((0, 15, 16, 62)).contexts == (15, 15,
                                                                   31, 63)

    def test_same_bucket_compositions_share_one_step(self):
        """Compositions that bucket identically must produce cache hits."""
        rng = random.Random(1234)
        bucket = 8
        compiler = _compiler(AcceleratorConfig(ctx_bucket=bucket))
        max_seq_len = compiler.model_config.max_seq_len
        for _ in range(100):
            contexts, logits = _random_composition(rng, max_seq_len)
            first = compiler.compile_step(contexts, logits)
            # Jitter every context within its bucket: same key, same step.
            jittered = tuple(rng.randint(max(0, b - bucket + 1), b)
                             for b in first.contexts)
            assert compiler.compile_step(jittered, logits) is first
        assert compiler.cache.hits >= 100

    def test_speculative_run_grouping_yields_distinct_steps(self):
        """Identical compositions with different verify-run groupings must
        compile distinct programs (the merger fuses per run)."""
        compiler = _compiler()
        contexts = (10, 10, 10)
        steps = [compiler.compile_step(contexts, run_ids=runs)
                 for runs in (None, (5, 5, 5), (5, 5, 6))]
        assert len({id(step) for step in steps}) == 3
        assert compiler.cache.misses == 3
        assert compiler.compile_step(contexts, run_ids=[5, 5, 6]) is steps[2]

    def test_distinct_views_never_share_a_step(self):
        """Compilers differing only in quantization, shard layout or fusion
        never return the same object for one composition — a shared one
        would hand one timing view another view's program."""
        rng = random.Random(987)
        model = preset("test-small")
        base = AcceleratorConfig()
        views = [
            _compiler(base),
            _compiler(base.replace(quant=QuantConfig.from_mode("int8"))),
            _compiler(base.replace(quant=QuantConfig.from_mode("int4"))),
            _compiler(base.replace(operator_fusion=False)),
            _compiler(base, shard=ShardSpec.from_config(model, tp=2)),
        ]
        for _ in range(20):
            contexts, logits = _random_composition(rng, model.max_seq_len)
            steps = [view.compile_step(contexts, logits) for view in views]
            assert len({id(step) for step in steps}) == len(views)
            assert len({id(step.program) for step in steps}) == len(views)

    def test_interleaved_views_price_like_fresh_compilers(self):
        """Compiling through several views in turn leaks nothing between
        them: each prices a composition exactly as a fresh compiler does."""
        rng = random.Random(4321)
        model = preset("test-small")
        base = AcceleratorConfig()
        configs = [
            (base, None),
            (base.replace(quant=QuantConfig.from_mode("int4")), None),
            (base.replace(operator_fusion=False), None),
            (base.replace(ctx_bucket=16), None),
            (base, ShardSpec.from_config(model, tp=2)),
        ]
        views = [_compiler(config, shard) for config, shard in configs]
        for _ in range(5):
            contexts, logits = _random_composition(rng, model.max_seq_len)
            for view, (config, shard) in zip(views, configs):
                result = view.simulate_step(contexts, logits)
                fresh = _compiler(config, shard).simulate_step(contexts, logits)
                assert result.cycles == fresh.cycles
                assert result.counters.hbm_bytes == fresh.counters.hbm_bytes

    def test_evicted_step_recompiles_to_the_same_price(self):
        compiler = _compiler()
        compiler.cache = CompileCache(capacity=2)
        first = compiler.compile_step((10, 20))
        cycles = compiler.simulate(first).cycles
        compiler.compile_step((30,))
        compiler.compile_step((40,))            # evicts (10, 20)
        assert compiler.work().compile_cache_evictions == 1
        again = compiler.compile_step((10, 20))
        assert again is not first
        assert compiler.simulate(again).cycles == cycles
        assert compiler.cache.misses == 4
