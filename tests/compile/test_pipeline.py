"""StepCompiler: phase structure, cache identity, lazy simulation."""

from __future__ import annotations

import pytest

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.config import AcceleratorConfig
from repro.compile.pipeline import PHASE_ORDER, StepCompiler
from repro.fpga import u280
from repro.graph.sharding import ShardSpec
from repro.llama.config import preset


@pytest.fixture()
def compiler():
    return StepCompiler(preset("stories15M"), AcceleratorConfig.variant("full"), u280())


class TestPhaseStructure:
    def test_phase_names_match_canonical_order(self, compiler):
        assert tuple(compiler.phases.names) == PHASE_ORDER

    def test_shard_phase_disabled_without_shard(self, compiler):
        assert compiler.phases["shard"].enabled is False

    def test_shard_phase_enabled_with_shard(self):
        model = preset("stories15M")
        shard = ShardSpec.from_config(model, tp=2)
        sharded = StepCompiler(model, AcceleratorConfig.variant("full"), u280(),
                               shard=shard)
        assert sharded.phases["shard"].enabled is True
        sharded.compile_step((16,))
        assert sharded.phases["shard"].stats.runs == 1

    def test_fuse_phase_follows_operator_fusion_flag(self):
        model = preset("stories15M")
        unfused_cfg = AcceleratorConfig.variant("full").replace(operator_fusion=False)
        unfused = StepCompiler(model, unfused_cfg, u280())
        assert unfused.phases["fuse"].enabled is False
        unfused.compile_step((16,))
        assert unfused.phases["fuse"].stats.skips == 1
        assert unfused.phases["fuse"].stats.runs == 0


class TestCompileStep:
    def test_cache_returns_identical_object(self, compiler):
        first = compiler.compile_step((10, 20))
        again = compiler.compile_step((10, 20))
        assert again is first
        assert compiler.cache.hits == 1
        assert compiler.cache.misses == 1

    def test_context_bucketing_collapses_shapes(self):
        config = AcceleratorConfig.variant("full").replace(ctx_bucket=32)
        bucketed = StepCompiler(preset("stories15M"), config, u280())
        first = bucketed.compile_step((5,))
        again = bucketed.compile_step((25,))   # same 32-wide bucket
        other = bucketed.compile_step((40,))   # next bucket
        assert again is first
        assert other is not first
        assert bucketed.cache.misses == 2

    def test_paged_padding_joins_the_key(self, compiler):
        padded = compiler.compile_step((10,), kv_block_tokens=16)
        exact = compiler.compile_step((10,))
        assert padded is not exact
        assert padded.contexts == (15,)   # 16-token block holds ctx+1 slots
        assert exact.contexts == (10,)

    def test_empty_step_rejected(self, compiler):
        with pytest.raises(ValueError):
            compiler.compile_step(())

    def test_mismatched_logits_rejected(self, compiler):
        with pytest.raises(ValueError):
            compiler.compile_step((10, 20), need_logits=[True])


class TestSimulation:
    def test_simulate_attaches_result_once(self, compiler):
        step = compiler.compile_step((30,))
        assert step.result is None       # compilation never pays simulation
        result = compiler.simulate(step)
        assert result.cycles > 0
        assert compiler.simulate(step) is result
        assert step.result is result

    def test_simulate_step_uses_the_cache(self, compiler):
        first = compiler.simulate_step((30,))
        second = compiler.simulate_step((30,))
        assert second is first
        assert compiler.cache.hits == 1

    def test_one_shot_generation_sums_one_slot_steps(self, small_checkpoint):
        # simulate_generation has no timing path of its own: it consumes
        # the accelerator compiler's one-slot steps, position by position.
        accel = SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig.variant("full"))
        metrics = accel.simulate_generation(n_prompt=2, n_generated=1)
        steps = [accel.timing.simulate_step([pos]) for pos in range(3)]
        assert metrics.prefill_cycles == steps[0].cycles + steps[1].cycles
        assert metrics.decode_cycles == steps[2].cycles
        assert metrics.counters.hbm_bytes == sum(
            step.counters.hbm_bytes for step in steps)
        assert accel.timing.cache.misses == 3


class TestStats:
    def test_stats_structure(self, compiler):
        compiler.simulate_step((12, 18))
        stats = compiler.stats()
        assert set(stats) == {"phases", "phase_seconds", "compile_seconds",
                              "cache"}
        assert [row["name"] for row in stats["phases"]] == list(PHASE_ORDER)
        assert stats["cache"]["entries"] == 1
        assert stats["compile_seconds"] >= 0.0

    def test_autotune_stats_present_when_enabled(self):
        config = AcceleratorConfig.variant("full").replace(autotune_tiling=True)
        tuned = StepCompiler(preset("stories15M"), config, u280())
        tuned.compile_step((16,))
        stats = tuned.stats()
        assert "autotune" in stats
        assert stats["autotune"]["searches"] == 1
