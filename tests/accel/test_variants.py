"""Tests for repro.accel.variants."""

from __future__ import annotations

import itertools

import pytest

from repro.accel.config import AcceleratorConfig
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
        cfg = AcceleratorConfig.variant("no-pipeline")
        assert cfg.pipeline is False and cfg.memory_reuse and cfg.operator_fusion

    def test_one_table_of_named_flags(self):
        """``variant`` builds each key's flags under the key's name."""
        for key, spec in PAPER_VARIANTS.items():
            assert AcceleratorConfig.variant(key).name == f"speedllm-{key}"
            cfg = AcceleratorConfig.variant(key)
            assert (cfg.pipeline, cfg.memory_reuse, cfg.operator_fusion) == (
                spec.pipeline, spec.memory_reuse, spec.operator_fusion)

    @pytest.mark.parametrize("pipeline, memory_reuse, operator_fusion",
                             list(itertools.product((True, False), repeat=3)))
    def test_every_flag_combination_is_a_config(self, pipeline, memory_reuse,
                                                operator_fusion):
        """The three toggles are independent: all eight combinations build,
        and a combination the paper names is exactly that variant."""
        flags = (pipeline, memory_reuse, operator_fusion)
        cfg = AcceleratorConfig(pipeline=pipeline, memory_reuse=memory_reuse,
                                operator_fusion=operator_fusion)
        named = [key for key, spec in PAPER_VARIANTS.items()
                 if (spec.pipeline, spec.memory_reuse, spec.operator_fusion) == flags]
        assert len(named) <= 1
        for key in named:
            assert AcceleratorConfig.variant(key) == cfg.replace(
                name=f"speedllm-{key}")

    def test_fig2a_starts_at_baseline_ends_at_full(self):
        """The Fig. 2(a) bar order is the runner's default variant list."""
        order = ExperimentConfig().variants
        assert order[0] == "unoptimized"
        assert order[-1] == "full"
        assert set(order) == set(PAPER_VARIANTS)


class TestHelpers:
    @pytest.mark.parametrize("name", ["pipeline-only", "reuse-only", "fusion-only"])
    def test_only_the_paper_design_points_have_names(self, name):
        with pytest.raises(KeyError, match="unknown variant"):
            AcceleratorConfig.variant(name)

    def test_variant_with_overrides(self):
        cfg = AcceleratorConfig.variant("full", hbm_stripe=2)
        assert cfg.hbm_stripe == 2

    def test_unknown_variant_rejected(self):
        with pytest.raises(KeyError):
            AcceleratorConfig.variant("warp-speed")
