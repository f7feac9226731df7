"""Tests for repro.core.runner (the experiment harness)."""

from __future__ import annotations

import pytest

from repro.accel.config import AcceleratorConfig
from repro.core.runner import ExperimentConfig, ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    config = ExperimentConfig(
        model="test-small",
        variants=("unoptimized", "no-pipeline", "no-fusion", "full"),
        n_prompt=4,
        n_generated=16,
        position_stride=8,
    )
    return ExperimentRunner(config)


class TestExperimentConfig:
    def test_defaults_target_stories15m(self):
        cfg = ExperimentConfig()
        assert cfg.model == "stories15M"
        assert "full" in cfg.variants and "unoptimized" in cfg.variants
        assert cfg.workload_name.startswith("stories15M")

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_prompt=0)
        with pytest.raises(ValueError):
            ExperimentConfig(position_stride=0)
        with pytest.raises(ValueError):
            ExperimentConfig(energy_accounting="solar")
        with pytest.raises(ValueError):
            ExperimentConfig(variants=())


class TestExperimentRunner:
    def test_runs_all_variants(self, runner):
        results = runner.run_all()
        assert len(results) == 4
        assert {r.variant for r in results} == {
            "unoptimized", "no-pipeline", "no-fusion", "full"}
        assert all(r.metrics.total_cycles > 0 for r in results)

    def test_results_cached(self, runner):
        assert runner.run_variant("full") is runner.run_variant("full")

    def test_fig2a_normalized_latency_shape(self, runner):
        norm = runner.fig2a_normalized_latency()
        assert norm["unoptimized"] == pytest.approx(1.0)
        assert norm["full"] < norm["no-pipeline"] <= 1.0
        assert norm["full"] == min(norm.values())

    def test_fig2b_energy_efficiency_shape(self, runner):
        eff = runner.fig2b_energy_efficiency()
        assert eff["unoptimized"] == pytest.approx(1.0)
        assert eff["full"] >= eff["no-fusion"] * 0.99
        assert eff["full"] > eff["unoptimized"]

    def test_headline_speedup_substantial(self, runner):
        assert runner.headline_speedup() > 2.5

    def test_result_rows_render(self, runner):
        rows = runner.result_rows()
        assert len(rows) == 4
        assert all("latency_ms" in row for row in rows)

    def test_paper_labels_attached(self, runner):
        result = runner.run_variant("no-pipeline")
        assert "parallel" in result.paper_label

    def test_board_energy_accounting(self):
        cfg = ExperimentConfig(model="test-small", variants=("full",),
                               n_prompt=2, n_generated=4, position_stride=2,
                               energy_accounting="board")
        runner = ExperimentRunner(cfg)
        result = runner.run_variant("full")
        # Whole-board accounting includes the ~25 W static draw.
        assert result.average_power_w > 20

    def test_run_variant_simulates_the_paper_variant(self):
        cfg = ExperimentConfig(model="test-small", variants=("full",),
                               n_prompt=2, n_generated=4, position_stride=2)
        runner = ExperimentRunner(cfg)
        assert runner.run_variant("full").metrics == runner.simulate(
            AcceleratorConfig.variant("full"))
