"""Tests for repro.accel.variants."""

from __future__ import annotations

import pytest

from repro.accel.config import VARIANT_NAMES, AcceleratorConfig
from repro.accel.variants import PAPER_VARIANTS
from repro.core.runner import ExperimentConfig


class TestPaperVariants:
    def test_paper_design_points_present(self):
        assert {"full", "no-fusion", "no-pipeline", "no-reuse", "unoptimized"} \
            <= set(PAPER_VARIANTS)

    def test_labels_match_paper_wording(self):
        assert PAPER_VARIANTS["full"].paper_label == "SpeedLLM"
        assert "none fused" in PAPER_VARIANTS["no-fusion"].paper_label
        assert "none parallel" in PAPER_VARIANTS["no-pipeline"].paper_label
        assert "unoptimized" in PAPER_VARIANTS["unoptimized"].paper_label

    def test_spec_config_flags(self):
        cfg = AcceleratorConfig.variant(PAPER_VARIANTS["no-pipeline"].key)
        assert cfg.pipeline is False and cfg.memory_reuse and cfg.operator_fusion

    def test_labels_key_the_one_flag_table(self):
        """Every labelled design point is a name of the flags table, and
        VARIANT_NAMES is that table: each name resolves to its own flags."""
        for key, spec in PAPER_VARIANTS.items():
            assert spec.key == key
            assert key in VARIANT_NAMES
        flags = {(c.pipeline, c.memory_reuse, c.operator_fusion)
                 for c in map(AcceleratorConfig.variant, VARIANT_NAMES)}
        assert len(flags) == len(VARIANT_NAMES) == 8

    def test_fig2a_starts_at_baseline_ends_at_full(self):
        """The Fig. 2(a) bar order is the runner's default variant list."""
        order = ExperimentConfig().variants
        assert order[0] == "unoptimized"
        assert order[-1] == "full"
        assert set(order) == set(PAPER_VARIANTS)


class TestHelpers:
    def test_variant_accepts_raw_keys(self):
        cfg = AcceleratorConfig.variant("pipeline-only")
        assert cfg.pipeline and not cfg.memory_reuse and not cfg.operator_fusion

    def test_variant_with_overrides(self):
        cfg = AcceleratorConfig.variant("full", hbm_stripe=2)
        assert cfg.hbm_stripe == 2

    def test_unknown_variant_rejected(self):
        with pytest.raises(KeyError):
            AcceleratorConfig.variant("warp-speed")
