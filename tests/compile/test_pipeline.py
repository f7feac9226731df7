"""StepCompiler: phases and memos, cache identity, lazy simulation."""

from __future__ import annotations

import pytest

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.config import AcceleratorConfig
from repro.compile import TilingPlan
from repro.compile.pipeline import PHASE_ORDER, StepCompiler
from repro.fpga import u280
from repro.graph.builder import GraphBuilder
from repro.graph.fusion import fuse_graph
from repro.graph.sharding import ShardSpec
from repro.llama.config import preset


@pytest.fixture()
def compiler():
    return StepCompiler(preset("stories15M"), AcceleratorConfig.variant("full"), u280())


class TestPhases:
    def test_phase_seconds_keys_are_the_canonical_order(self, compiler):
        assert tuple(compiler.phase_seconds) == PHASE_ORDER
        compiler.compile_step((12, 18))
        assert tuple(compiler.stats()["phase_seconds"]) == PHASE_ORDER
        assert all(compiler.phase_seconds.values())

    def test_memos_compile_each_unit_once(self, compiler):
        program = compiler.lower(16)
        spent = dict(compiler.phase_seconds)
        assert compiler.lower(16) is program
        assert compiler.phase_seconds == spent
        compiler.lower(17)
        assert len(compiler._templates) == 1   # one template per (logits, plan)
        assert compiler.lower(16, include_logits=False) is not program
        assert len(compiler._templates) == 2

    def test_contexts_share_the_template_programs(self, compiler):
        short, long = compiler.lower(16), compiler.lower(40)
        assert [op.op_name for op in short.ops] == [op.op_name for op in long.ops]
        shared = [a is b for a, b in zip(short.ops, long.ops)]
        # Per layer, the KV append and the fused attention core differ.
        n_layers = compiler.model_config.n_layers
        assert shared.count(False) == 2 * n_layers

    def test_sharded_compiler_builds_the_shard_graph(self, compiler):
        model = preset("stories15M")
        shard = ShardSpec.from_config(model, tp=2)
        sharded = StepCompiler(model, AcceleratorConfig.variant("full"), u280(),
                               shard=shard)
        program = sharded.lower(16)
        graph = fuse_graph(GraphBuilder(model, shard=shard).build_decode_step(16)).graph
        assert program.name == graph.name == "stories15M-decode-ctx16-tp2+fused"
        assert program.metadata["graph"] == graph.name
        assert (sum(p.weight_bytes for p in program.packets())
                < sum(p.weight_bytes for p in compiler.lower(16).packets()))

    def test_lower_is_keyed_by_plan(self, compiler):
        fixed = compiler.lower(16)
        folded = compiler.lower(16, plan=TilingPlan(2))
        assert folded is not fixed
        assert compiler.lower(16, plan=TilingPlan(2)) is folded
        assert [op.op_name for op in folded.ops] == [op.op_name for op in fixed.ops]
        assert folded.metadata["tiling_plan"] == TilingPlan(2).label

    def test_lower_refuses_a_context_outside_the_window(self, compiler):
        compiler.lower(16)   # the template exists; the window still checks
        with pytest.raises(ValueError, match="max_seq_len"):
            compiler.lower(compiler.model_config.max_seq_len)

    def test_single_slot_step_is_the_slot_program(self, compiler):
        step = compiler.compile_step((16,))
        assert step.program is compiler.lower(16)
        assert compiler.phase_seconds["schedule"] == 0.0   # nothing to merge

    def test_bucketed_step_lowers_the_bucket_context(self):
        config = AcceleratorConfig.variant("full").replace(ctx_bucket=32)
        bucketed = StepCompiler(preset("stories15M"), config, u280())
        assert bucketed.compile_step((5,)).program is bucketed.lower(31)

    def test_fuse_follows_operator_fusion_flag(self, compiler):
        model = preset("stories15M")
        unfused_cfg = AcceleratorConfig.variant("full").replace(operator_fusion=False)
        unfused = StepCompiler(model, unfused_cfg, u280())
        unfused.compile_step((16,))
        assert unfused.phase_seconds["fuse"] == 0.0
        assert unfused.phase_seconds["build"] > 0.0
        assert not any(op.op_name.startswith("fused[") for op in unfused.lower(16).ops)
        assert any(op.op_name.startswith("fused[") for op in compiler.lower(16).ops)


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

    @pytest.mark.parametrize("context", [-1, 64, 564])
    def test_context_outside_the_window_rejected(self, context):
        # Padding clamps to the window, so an unchecked 564 on a 64-token
        # model would be priced as context 63 instead of refused.
        small = StepCompiler(preset("test-small"), AcceleratorConfig(), u280())
        with pytest.raises(ValueError, match=str(context)):
            small.compile_step([10, context])
        with pytest.raises(ValueError, match=str(context)):
            small.compile_step([context], kv_block_tokens=16)
        assert small.cache.misses == 0
        assert small.compile_step([63]).contexts == (63,)

    @pytest.mark.parametrize("view", ["bucketed", "unfused", "autotuned", "tp2"])
    def test_every_view_checks_the_window_before_padding(self, view):
        model = preset("test-small")
        config, shard = AcceleratorConfig(), None
        if view == "bucketed":
            config = config.replace(ctx_bucket=16)
        elif view == "unfused":
            config = config.replace(operator_fusion=False)
        elif view == "autotuned":
            config = config.replace(autotune_tiling=True)
        else:
            shard = ShardSpec.from_config(model, tp=2)
        small = StepCompiler(model, config, u280(), shard=shard)
        with pytest.raises(ValueError, match="64"):
            small.compile_step([64], kv_block_tokens=16)
        assert small.work() == StepCompiler(model, config, u280()).work()
        assert small.compile_step([63], kv_block_tokens=16).contexts == (63,)


class TestCompileWork:
    def test_miss_is_charged_once(self, compiler):
        before = compiler.work()
        compiler.compile_step((12, 18))
        spent = compiler.work() - before
        assert spent.compile_cache_misses == 1
        assert spent.compile_cache_evictions == 0
        assert tuple(spent.compile_phase_seconds) == PHASE_ORDER
        assert spent.compile_phase_seconds["build"] > 0.0

    def test_hit_costs_nothing(self, compiler):
        compiler.compile_step((12, 18))
        before = compiler.work()
        compiler.compile_step((12, 18))
        spent = compiler.work() - before
        assert spent.compile_cache_misses == 0
        assert not any(spent.compile_phase_seconds.values())

    def test_search_counters_reach_the_work(self):
        config = AcceleratorConfig.variant("full").replace(autotune_tiling=True)
        tuned = StepCompiler(preset("test-small"), config, u280())
        tuned.compile_step((20,))
        work = tuned.work()
        assert work.autotune_searches == tuned.searches == 1
        assert work.autotune_candidates == len(tuned.plans)
        assert work.autotune_wins == tuned.wins


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
        assert set(stats) == {"phase_seconds", "compile_seconds", "cache"}
        assert stats["cache"]["entries"] == 1
        assert stats["compile_seconds"] == pytest.approx(
            sum(stats["phase_seconds"].values()))

    def test_autotune_stats_present_when_enabled(self):
        config = AcceleratorConfig.variant("full").replace(autotune_tiling=True)
        tuned = StepCompiler(preset("stories15M"), config, u280())
        tuned.compile_step((16,))
        stats = tuned.stats()
        assert "autotune" in stats
        assert stats["autotune"]["searches"] == 1
