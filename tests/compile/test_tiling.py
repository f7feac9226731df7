"""Tiling-plan space: validation, capacity clamping, candidate bounds."""

from __future__ import annotations

import pytest

from repro.accel.config import AcceleratorConfig
from repro.compile import DEFAULT_PLAN, TilingPlan, candidate_plans, clamped_fold
from repro.llama.config import preset


class TestTilingPlan:
    def test_default_plan_is_fixed_tiling(self):
        assert DEFAULT_PLAN.matmul_fold == 1
        assert DEFAULT_PLAN.is_default
        assert TilingPlan(2).is_default is False

    def test_validation(self):
        with pytest.raises(ValueError):
            TilingPlan(matmul_fold=0)

    def test_label(self):
        assert TilingPlan(4).label == "fold4"
        assert DEFAULT_PLAN.label == "fold1"


class TestClampedFold:
    def test_fold_kept_when_tile_fits_segment(self):
        # 4 * 64 rows * 128 features * 1 byte = 32 KB <= 128 KB
        plan = TilingPlan(matmul_fold=4)
        assert clamped_fold(plan, 128, 64, 1.0, 128 * 1024) == 4

    def test_fold_halved_until_tile_fits(self):
        # 8 * 64 * 512 * 1 = 256 KB > 128 KB; 4 * 64 * 512 = 128 KB fits.
        plan = TilingPlan(matmul_fold=8)
        assert clamped_fold(plan, 512, 64, 1.0, 128 * 1024) == 4

    def test_huge_reduction_degrades_to_fixed_tiling(self):
        # Even the unfolded tile exceeds the segment: keep fold=1, the
        # historical tiling — capacity never gets worse than the default.
        plan = TilingPlan(matmul_fold=8)
        assert clamped_fold(plan, 1 << 22, 64, 1.0, 128 * 1024) == 1


class TestCandidatePlans:
    def test_default_plan_is_always_first(self):
        plans = candidate_plans(AcceleratorConfig.variant("full"), preset("stories15M"))
        assert plans[0] == DEFAULT_PLAN
        assert len(plans) == len(set(plans))

    def test_folds_are_powers_of_two(self):
        plans = candidate_plans(AcceleratorConfig.variant("full"), preset("stories15M"))
        for plan in plans:
            assert plan.matmul_fold & (plan.matmul_fold - 1) == 0

    def test_folds_pruned_by_segment_capacity(self):
        config = AcceleratorConfig.variant("full")
        tiny_segments = config.replace(
            buffers=config.buffers.__class__(n_segments=8, segment_kb=16))
        plans = candidate_plans(tiny_segments, preset("stories15M"))
        # 16 KB segments: a fold-8 tile over even the smallest reduction
        # (head_dim 48: 8 * 64 * 48 = 24 KB) no longer fits.
        assert max(p.matmul_fold for p in plans) < 8

    def test_search_space_is_bounded(self):
        plans = candidate_plans(AcceleratorConfig.variant("full"), preset("stories15M"))
        assert len(plans) <= 4
