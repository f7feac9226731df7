"""Autotuned tiling: winner selection, counters, and real-model wins."""

from __future__ import annotations

from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.compile import DEFAULT_PLAN, TilingPlan, candidate_plans
from repro.compile.pipeline import StepCompiler
from repro.fpga import u280
from repro.llama.config import preset


def _tuned(model="test-small", **config):
    accel = AcceleratorConfig.variant("full").replace(autotune_tiling=True,
                                                      **config)
    return StepCompiler(preset(model), accel, u280())


class TestSearch:
    def test_counters_accumulate_across_searches(self):
        tuned = _tuned()
        plans = candidate_plans(tuned.config, tuned.model_config)
        assert tuned.plans == plans and tuned.plans[0] == DEFAULT_PLAN
        for contexts in [(8,), (40,), (8, 40)]:
            tuned.compile_step(contexts)
        tuned.compile_step((8,))                 # a hit searches nothing
        assert tuned.searches == 3
        assert tuned.candidates_scored == tuned.searches * len(plans)
        stats = tuned.stats()["autotune"]
        assert set(stats) == {"search_space", "searches", "candidates_scored",
                              "wins", "win_ratio", "cycles_saved", "seconds"}
        assert stats["search_space"] == len(plans)
        assert stats["win_ratio"] == tuned.wins / 3
        assert stats["seconds"] > 0.0

    def test_winner_is_the_lowest_cycle_candidate(self):
        tuned = _tuned()
        step = tuned.compile_step((40,))
        fixed = StepCompiler(tuned.model_config,
                             tuned.config.replace(autotune_tiling=False),
                             u280())
        baseline = fixed.simulate_step((40,)).cycles
        assert step.result.cycles <= baseline
        assert tuned.cycles_saved == baseline - step.result.cycles
        assert tuned.wins == (step.result.cycles < baseline)

    def test_tie_keeps_the_fixed_plan_and_counts_no_win(self):
        # Segments this small clamp every fold back to 1, so both plans
        # lower to the same program and score the same cycles.
        tuned = _tuned(buffers=BufferConfig(segment_kb=1))
        tuned.plans = [DEFAULT_PLAN, TilingPlan(2)]
        assert (list(tuned.lower(20, plan=TilingPlan(2)).packets())
                == list(tuned.lower(20).packets()))
        step = tuned.compile_step((20,))
        assert step.plan == DEFAULT_PLAN
        assert tuned.searches == 1 and tuned.candidates_scored == 2
        assert tuned.wins == 0 and tuned.cycles_saved == 0


class TestAutotunedCompiler:
    """The autotuner never loses to the fixed tiling on real programs."""

    def _compilers(self):
        model = preset("stories15M")
        plat = u280()
        fixed = StepCompiler(model, AcceleratorConfig.variant("full"), plat)
        tuned = StepCompiler(
            model, AcceleratorConfig.variant("full").replace(autotune_tiling=True), plat
        )
        return fixed, tuned

    def test_autotuned_cycles_never_exceed_fixed(self):
        fixed, tuned = self._compilers()
        for contexts in [(8,), (200,), (100, 150), (32, 32, 32, 32)]:
            base = fixed.simulate_step(contexts).cycles
            best = tuned.simulate_step(contexts).cycles
            assert best <= base, f"autotuner lost at contexts={contexts}"

    def test_deep_context_single_slot_picks_nondefault_plan(self):
        # fold>1 reuses weight tiles across slots' worth of drain, which at
        # batch 1 / deep context is a large measured win (~1.5x); the
        # winner must not be the fixed tiling there.
        _, tuned = self._compilers()
        step = tuned.compile_step((250,))
        assert not step.plan.is_default
        assert tuned.wins == 1
