"""Tests for the analytical latency model (simulation cross-check)."""

from __future__ import annotations

import pytest

from repro.accel.analytical import AnalyticalModel
from repro.accel.compiler import ProgramCompiler
from repro.accel.config import AcceleratorConfig
from repro.accel.pipeline import PipelineExecutor
from repro.fpga.u280 import u280
from repro.graph.builder import build_decode_graph
from repro.graph.fusion import fuse_graph


@pytest.fixture(scope="module")
def platform():
    return u280()


def _program(config, model_config, context_len=4):
    graph = build_decode_graph(model_config, context_len)
    if config.operator_fusion:
        graph = fuse_graph(graph)
    return ProgramCompiler(config).compile(graph)


class TestAnalyticalEstimate:
    def test_components_positive(self, small_config, platform):
        config = AcceleratorConfig()
        program = _program(config, small_config)
        estimate = AnalyticalModel(config, platform).estimate(program)
        assert estimate.load_cycles > 0
        assert estimate.compute_cycles > 0
        assert estimate.dispatch_cycles > 0
        assert estimate.flush_cycles == 0         # reuse enabled
        assert estimate.overlapped_cycles < estimate.serial_cycles

    def test_no_reuse_adds_flush_cycles(self, small_config, platform):
        config = AcceleratorConfig.variant("no-reuse")
        program = _program(config, small_config)
        estimate = AnalyticalModel(config, platform).estimate(program)
        assert estimate.flush_cycles > 0

    def test_sequential_design_pays_access_latency(self, small_config, platform):
        fast = AcceleratorConfig.variant("full")
        slow = AcceleratorConfig.variant("no-pipeline")
        program_fast = _program(fast, small_config)
        program_slow = _program(slow, small_config)
        est_fast = AnalyticalModel(fast, platform).estimate(program_fast)
        est_slow = AnalyticalModel(slow, platform).estimate(program_slow)
        assert est_slow.load_cycles > est_fast.load_cycles


class TestSimulationBrackets:
    @pytest.mark.parametrize("variant", ["full", "no-pipeline", "unoptimized"])
    def test_simulated_cycles_within_brackets(self, small_config, platform, variant):
        """The cycle simulation must land between the analytical bounds."""
        config = AcceleratorConfig.variant(variant)
        program = _program(config, small_config, context_len=8)
        simulated = PipelineExecutor(config, platform).run(program).cycles
        model = AnalyticalModel(config, platform)
        assert model.check_simulation(program, simulated)

    def test_far_off_value_rejected(self, small_config, platform):
        config = AcceleratorConfig()
        program = _program(config, small_config)
        model = AnalyticalModel(config, platform)
        assert not model.check_simulation(program, simulated_cycles=1)
        assert not model.check_simulation(program, simulated_cycles=10 ** 9)
