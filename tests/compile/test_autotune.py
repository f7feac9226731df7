"""Tile autotuner: winner selection, counters, and real-model wins."""

from __future__ import annotations

import pytest

from repro.accel.config import AcceleratorConfig
from repro.compile import DEFAULT_PLAN, TileAutotuner, TilingPlan
from repro.compile.pipeline import StepCompiler
from repro.fpga import u280
from repro.llama.config import preset


class TestTileAutotuner:
    PLANS = [DEFAULT_PLAN, TilingPlan(2), TilingPlan(4)]

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            TileAutotuner([])

    def test_picks_minimum_cycle_plan(self):
        tuner = TileAutotuner(self.PLANS)
        costs = {1: 300, 2: 100, 4: 200}
        outcome = tuner.tune(lambda p: (p.label, costs[p.matmul_fold]))
        assert outcome.plan == TilingPlan(2)
        assert outcome.payload == "fold2"
        assert outcome.cycles == 100
        assert outcome.baseline_cycles == 300
        assert outcome.won
        assert outcome.speedup == pytest.approx(3.0)

    def test_ties_break_toward_earlier_candidate(self):
        tuner = TileAutotuner(self.PLANS)
        outcome = tuner.tune(lambda p: (None, 100))
        assert outcome.plan == DEFAULT_PLAN
        assert not outcome.won
        assert outcome.speedup == 1.0

    def test_counters_accumulate_across_searches(self):
        tuner = TileAutotuner(self.PLANS)
        tuner.tune(lambda p: (None, {1: 300, 2: 100, 4: 200}[p.matmul_fold]))
        tuner.tune(lambda p: (None, 100))  # default ties: no win
        assert tuner.searches == 2
        assert tuner.candidates_scored == 6
        assert tuner.wins == 1
        assert tuner.win_ratio == 0.5
        assert tuner.cycles_saved == 200
        stats = tuner.stats()
        assert stats["search_space"] == 3
        assert set(stats) == {"search_space", "searches", "candidates_scored",
                              "wins", "win_ratio", "cycles_saved", "seconds"}


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
        assert tuned.autotuner is not None
        assert tuned.autotuner.wins == 1
