"""Integration tests checking the *shape* of the paper's claims.

These run on the small test model (so the suite stays fast); the
stories15M numbers are ``speedllm bench``'s and ``benchmarks/perf``'s
``paper_fig2_variants`` workload.  What must hold even at test scale:

* the optimization ladder is monotonic — every optimization the paper adds
  reduces latency, and the full design is the fastest (Fig. 2a shape);
* the full design is at least as energy-efficient as the unoptimized one,
  and the fusion-only delta is small (Fig. 2b shape);
* operator fusion does not change the computed logits (correctness of the
  co-design);
* cost efficiency of the simulated U280 beats the GPU comparators for the
  TinyStories-class model (§3.2.2 shape);
* the design choices behind the co-design pay off one at a time: cyclic
  buffer reuse never loses whatever the pool size, narrower weights
  stream faster, every fusion rule removes off-chip traffic, and the
  full design beats the unoptimized one at every model scale
  (``TestAblationShape``).
"""

from __future__ import annotations

import pytest

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.compiler import ProgramCompiler
from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.core.cost import cost_efficiency_table
from repro.core.metrics import normalized_energy_efficiency, normalized_latency
from repro.core.runner import ExperimentConfig, ExperimentRunner
from repro.graph import build_decode_graph, default_rules, fuse_graph
from repro.llama.config import preset
from repro.quant import QuantConfig


@pytest.fixture(scope="module")
def runner():
    config = ExperimentConfig(
        model="test-small",
        variants=("unoptimized", "no-pipeline", "no-reuse", "no-fusion", "full"),
        n_prompt=4,
        n_generated=24,
        position_stride=8,
    )
    return ExperimentRunner(config)


@pytest.fixture(scope="module")
def results(runner):
    return runner.run_all()


class TestFig2aShape:
    def test_full_design_is_fastest(self, results):
        norm = normalized_latency(results)
        assert norm["full"] == min(norm.values())

    def test_every_optimization_helps_latency(self, results):
        norm = normalized_latency(results)
        assert norm["full"] < norm["no-pipeline"] < norm["unoptimized"]
        assert norm["full"] < norm["no-reuse"] < norm["unoptimized"]
        assert norm["full"] <= norm["no-fusion"] * 1.02
        assert norm["no-fusion"] < norm["unoptimized"]

    def test_bar_order_matches_the_figure(self, results):
        """Fig. 2(a)'s bar order: losing the pipeline costs more than
        losing buffer reuse (was benchmarks/bench_fig2a_latency.py's)."""
        norm = normalized_latency(results)
        assert norm["full"] < norm["no-reuse"] < norm["no-pipeline"] < 1.0

    def test_substantial_speedup_over_unoptimized(self, results):
        """The paper reports up to 4.8x on stories15M; at test-model scale
        the gap is smaller but must still be a multiple, not a few percent."""
        norm = normalized_latency(results)
        assert 1.0 / norm["full"] > 2.5

    def test_pipeline_is_largest_single_contributor(self, results):
        norm = normalized_latency(results)
        pipeline_gain = norm["no-pipeline"] / norm["full"]
        fusion_gain = norm["no-fusion"] / norm["full"]
        assert pipeline_gain > fusion_gain


class TestFig2bShape:
    def test_full_design_most_energy_efficient(self, results):
        eff = normalized_energy_efficiency(results)
        assert eff["full"] >= max(v for k, v in eff.items() if k != "full") * 0.99

    def test_fusion_energy_delta_is_marginal(self, results):
        """Paper: 1.01x vs the no-fusion design."""
        eff = normalized_energy_efficiency(results)
        ratio = eff["full"] / eff["no-fusion"]
        assert 0.98 < ratio < 1.2

    def test_efficiency_gain_much_smaller_than_speedup(self, results):
        """Paper: 4.8x faster but only 1.18x more energy-efficient, because
        the faster design draws proportionally more power."""
        norm = normalized_latency(results)
        eff = normalized_energy_efficiency(results)
        speedup = 1.0 / norm["full"]
        efficiency_gain = eff["full"]
        assert efficiency_gain < speedup / 1.5

    def test_power_scales_with_throughput(self, results):
        by_variant = {r.variant: r for r in results}
        assert (by_variant["full"].average_power_w
                > by_variant["unoptimized"].average_power_w)


class TestCostEfficiencyShape:
    def test_u280_best_tokens_per_dollar(self, results):
        full = next(r for r in results if r.variant == "full")
        # Use the stories15M model for the GPU side, as the paper does; the
        # simulated throughput here is from the test model, which is *lower*
        # than stories15M throughput, making this a conservative check.
        table = cost_efficiency_table(
            fpga_tokens_per_second=full.decode_tokens_per_second,
            fpga_power_w=full.average_power_w,
            config=preset("stories15M"),
        )
        fpga_row = table[0]
        assert all(
            fpga_row.tokens_per_second_per_dollar > row.tokens_per_second_per_dollar
            for row in table[1:]
        )


class TestAblationShape:
    @pytest.mark.parametrize("n_segments", [2, 4, 8, 16])
    def test_buffer_reuse_never_loses(self, runner, n_segments):
        """With cyclic reuse the pool size barely matters; without it every
        pool drain pays the flush penalty — the quantitative argument for
        the paper's memory allocation reuse strategy."""
        buffers = BufferConfig(n_segments=n_segments, segment_kb=128)
        drain_config = AcceleratorConfig(buffers=buffers, memory_reuse=False)
        reuse = runner.simulate(AcceleratorConfig(buffers=buffers))
        drain = runner.simulate(drain_config)
        drain_step = SpeedLLMAccelerator(
            runner.model_config, drain_config, platform=runner.platform,
        ).timing.simulate_step([runner.config.n_prompt])
        assert drain_step.n_flushes > 0
        assert drain.total_seconds >= reuse.total_seconds

    def test_lower_precision_streams_faster(self, runner):
        """int4 streaming beats fp16 on the bandwidth-bound decode."""
        int4 = runner.simulate(AcceleratorConfig(quant=QuantConfig.datapath(4)))
        fp16 = runner.simulate(AcceleratorConfig(quant=QuantConfig.datapath(16)))
        assert int4.decode_tokens_per_second > fp16.decode_tokens_per_second

    @pytest.mark.parametrize("rule", default_rules(), ids=lambda r: r.name)
    def test_each_fusion_rule_removes_offchip_traffic(self, small_config, rule):
        compiler = ProgramCompiler(AcceleratorConfig())
        graph = build_decode_graph(small_config, context_len=16)
        fused = fuse_graph(graph, [rule])
        assert any(op.attributes.get("rule") == rule.name for op in fused)
        fused_prog, unfused_prog = compiler.compile(fused), compiler.compile(graph)
        assert (fused_prog.totals.hbm_read_bytes + fused_prog.totals.hbm_write_bytes
                <= unfused_prog.totals.hbm_read_bytes + unfused_prog.totals.hbm_write_bytes)

    def test_full_rule_set_saves_hbm_traffic(self, results):
        """Fusion removes off-chip traffic; its latency/energy effect is
        small (the paper reports 1.01x), so it only must not hurt."""
        by_variant = {r.variant: r.metrics for r in results}
        fused, unfused = by_variant["full"], by_variant["no-fusion"]
        assert unfused.counters.hbm_bytes > fused.counters.hbm_bytes
        assert unfused.total_seconds / fused.total_seconds > 0.98
        assert fused.tokens_per_joule / unfused.tokens_per_joule > 0.98

    @pytest.mark.parametrize("model", ["stories15M", "stories42M"])
    def test_speedup_persists_at_model_scale(self, model):
        """The one claim checked on the paper's own models (timing only,
        three simulated positions per design)."""
        runner = ExperimentRunner(ExperimentConfig(
            model=model, variants=("unoptimized", "full"),
            n_prompt=8, n_generated=24, position_stride=16))
        assert runner.headline_speedup() > 1.5
