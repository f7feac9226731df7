"""Tests for repro.accel.pipeline (the read-compute-write executor)."""

from __future__ import annotations

import pytest

from repro.accel.compiler import ProgramCompiler
from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.accel.instructions import OpProgram, Program, TilePacket
from repro.accel.pipeline import DISPATCH_CYCLES, PipelineExecutor
from repro.accel.variants import PAPER_VARIANTS
from repro.compile.pipeline import StepCompiler
from repro.fpga.u280 import u280
from repro.graph.builder import build_decode_graph
from repro.graph.fusion import fuse_graph
from repro.graph.ops import ComputeUnit
from repro.obs.tracer import CYCLES

from .kernel_oracle import TraceEvent, trace_events


@pytest.fixture(scope="module")
def platform():
    return u280()


@pytest.fixture(scope="module")
def small_graph(small_config):
    return build_decode_graph(small_config, context_len=4)


def _run(config, graph, platform):
    program = ProgramCompiler(config).compile(graph)
    return PipelineExecutor(config, platform).run(program)


class TestStepResult:
    def test_counters_populated(self, small_graph, platform):
        config = AcceleratorConfig()
        result = _run(config, small_graph, platform)
        assert result.cycles > 0
        assert result.counters.instructions > 0
        assert result.counters.int8_macs > 0
        assert result.counters.hbm_read_bytes > 0
        assert result.counters.mpe_tiles > 0
        assert result.counters.sfu_ops > 0

    def test_macs_match_program(self, small_graph, platform):
        config = AcceleratorConfig()
        program = ProgramCompiler(config).compile(small_graph)
        result = PipelineExecutor(config, platform).run(program)
        assert result.counters.int8_macs == program.totals.int8_macs
        assert result.counters.instructions == len(list(program.packets()))

    def test_utilization_bounds(self, small_graph, platform):
        result = _run(AcceleratorConfig(), small_graph, platform)
        assert 0 < result.mpe_utilization <= 1.0

    def test_deterministic(self, small_graph, platform):
        config = AcceleratorConfig()
        a = _run(config, small_graph, platform)
        b = _run(config, small_graph, platform)
        assert a.cycles == b.cycles
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_trace_enabled_records_events(self, small_graph, platform):
        config = AcceleratorConfig(trace_enabled=True)
        result = _run(config, small_graph, platform)
        assert result.spans is not None
        assert len(result.spans) > 0
        assert all(span.clock == CYCLES for span in result.spans)

    def test_trace_disabled_by_default(self, small_graph, platform):
        result = _run(AcceleratorConfig(), small_graph, platform)
        assert result.spans is None


def _one_packet(load, compute):
    config = AcceleratorConfig(pipeline=False, hbm_stripe=1, trace_enabled=True)
    program = Program([OpProgram("x", ComputeUnit.MPE, [
        TilePacket(ComputeUnit.MPE, load, compute, 0)])])
    return PipelineExecutor(config, u280(n_hbm_channels=1)).run(program)


class TestCycleSpans:
    def test_records_in_order(self):
        result = _one_packet(load=4096, compute=10)
        loaded = result.spans[0].end
        assert trace_events(result.spans) == [
            TraceEvent("hbm:hbm0", "x", DISPATCH_CYCLES, loaded, "transfer"),
            TraceEvent("mpe", "x", loaded, loaded + 10),
        ]
        assert loaded > DISPATCH_CYCLES and result.cycles == loaded + 10

    def test_zero_length_interval_is_recorded(self):
        (span,) = _one_packet(load=0, compute=0).spans
        assert (span.name, span.start, span.end) == ("x", DISPATCH_CYCLES, DISPATCH_CYCLES)


class TestOptimizationEffects:
    def test_pipelining_is_faster_than_sequential(self, small_graph, platform):
        pipelined = _run(AcceleratorConfig.variant("full"), small_graph, platform)
        sequential = _run(AcceleratorConfig.variant("no-pipeline"), small_graph, platform)
        assert pipelined.cycles < sequential.cycles
        # identical functional work either way
        assert pipelined.counters.int8_macs == sequential.counters.int8_macs

    def test_no_reuse_causes_flushes_and_slowdown(self, small_graph, platform):
        full = _run(AcceleratorConfig.variant("full"), small_graph, platform)
        noreuse = _run(AcceleratorConfig.variant("no-reuse"), small_graph, platform)
        assert noreuse.n_flushes > 0
        assert full.n_flushes == 0
        assert noreuse.cycles > full.cycles

    def test_unoptimized_is_slowest(self, small_graph, platform):
        cycles = {
            name: _run(AcceleratorConfig.variant(name), small_graph, platform).cycles
            for name in ("full", "no-pipeline", "no-reuse", "unoptimized")
        }
        assert cycles["unoptimized"] == max(cycles.values())
        assert cycles["full"] == min(cycles.values())

    def test_fusion_reduces_traffic_through_executor(self, small_config, platform):
        graph = build_decode_graph(small_config, 8)
        fused = fuse_graph(graph)
        config = AcceleratorConfig()
        plain = _run(config, graph, platform)
        with_fusion = _run(config, fused, platform)
        assert with_fusion.counters.hbm_bytes < plain.counters.hbm_bytes

    def test_higher_mpe_utilization_when_pipelined(self, small_graph, platform):
        pipelined = _run(AcceleratorConfig.variant("full"), small_graph, platform)
        sequential = _run(AcceleratorConfig.variant("no-pipeline"), small_graph, platform)
        assert pipelined.mpe_utilization > sequential.mpe_utilization

    def test_tiny_buffer_pool_creates_backpressure(self, small_graph, platform):
        roomy = AcceleratorConfig()
        cramped = AcceleratorConfig(
            buffers=BufferConfig(n_segments=1, segment_kb=128)
        )
        fast = _run(roomy, small_graph, platform)
        slow = _run(cramped, small_graph, platform)
        assert slow.cycles >= fast.cycles
        assert slow.counters.buffer_stall_cycles >= fast.counters.buffer_stall_cycles

    def test_memory_stalls_visible_with_narrow_stripe(self, small_graph, platform):
        narrow = AcceleratorConfig(hbm_stripe=1)
        wide = AcceleratorConfig(hbm_stripe=16)
        slow = _run(narrow, small_graph, platform)
        fast = _run(wide, small_graph, platform)
        assert slow.cycles > fast.cycles


#: What ``PipelineExecutor.run`` computed at PR 17 — ``(cycles, engine_busy,
#: n_flushes, counters.as_dict())`` — for the five paper variants on
#: test-small at contexts 0 and 40, and for one 3-slot batched step with
#: mixed ``need_logits``.  Recorded before the HBM arbitration was rewritten:
#: a changed channel pick, stripe split or same-cycle order moves these.
PINNED_RUNS = {
    ("full", 0): (
        2056, {"load": 4846, "mpe": 470, "sfu": 573, "store": 3705}, 0,
        {"int8_macs": 171392, "sfu_flops": 6604, "hbm_read_bytes": 186308,
         "hbm_write_bytes": 13440, "onchip_read_bytes": 16584,
         "onchip_write_bytes": 16584, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2032, "buffer_stall_cycles": 0,
         "memory_stall_cycles": 924, "dequant_flops": 0,
         "quant_saved_bytes": 0},
    ),
    ("full", 40): (
        2143, {"load": 5038, "mpe": 476, "sfu": 663, "store": 3710}, 0,
        {"int8_macs": 186752, "sfu_flops": 9004, "hbm_read_bytes": 217028,
         "hbm_write_bytes": 13440, "onchip_read_bytes": 50184,
         "onchip_write_bytes": 50184, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2032, "buffer_stall_cycles": 0,
         "memory_stall_cycles": 915, "dequant_flops": 0,
         "quant_saved_bytes": 0},
    ),
    ("no-fusion", 0): (
        2172, {"load": 5421, "mpe": 470, "sfu": 573, "store": 5138}, 0,
        {"int8_macs": 171392, "sfu_flops": 6604, "hbm_read_bytes": 192804,
         "hbm_write_bytes": 19936, "onchip_read_bytes": 9368,
         "onchip_write_bytes": 9368, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2528, "buffer_stall_cycles": 0,
         "memory_stall_cycles": 1040, "dequant_flops": 0,
         "quant_saved_bytes": 0},
    ),
    ("no-fusion", 40): (
        2262, {"load": 5564, "mpe": 476, "sfu": 663, "store": 5146}, 0,
        {"int8_macs": 186752, "sfu_flops": 9004, "hbm_read_bytes": 227364,
         "hbm_write_bytes": 23776, "onchip_read_bytes": 10328,
         "onchip_write_bytes": 10328, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2528, "buffer_stall_cycles": 0,
         "memory_stall_cycles": 1034, "dequant_flops": 0,
         "quant_saved_bytes": 0},
    ),
    ("no-pipeline", 0): (
        6737, {"load": 4717, "mpe": 470, "sfu": 573, "store": 3705}, 0,
        {"int8_macs": 171392, "sfu_flops": 6604, "hbm_read_bytes": 186308,
         "hbm_write_bytes": 13440, "onchip_read_bytes": 16584,
         "onchip_write_bytes": 16584, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2032, "buffer_stall_cycles": 0,
         "memory_stall_cycles": 0, "dequant_flops": 0, "quant_saved_bytes": 0},
    ),
    ("no-pipeline", 40): (
        6863, {"load": 4747, "mpe": 476, "sfu": 663, "store": 3705}, 0,
        {"int8_macs": 186752, "sfu_flops": 9004, "hbm_read_bytes": 217028,
         "hbm_write_bytes": 13440, "onchip_read_bytes": 50184,
         "onchip_write_bytes": 50184, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2032, "buffer_stall_cycles": 0,
         "memory_stall_cycles": 0, "dequant_flops": 0, "quant_saved_bytes": 0},
    ),
    ("no-reuse", 0): (
        4359, {"load": 5054, "mpe": 470, "sfu": 573, "store": 3705}, 9,
        {"int8_macs": 171392, "sfu_flops": 6604, "hbm_read_bytes": 189380,
         "hbm_write_bytes": 13440, "onchip_read_bytes": 16584,
         "onchip_write_bytes": 16584, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2032, "buffer_stall_cycles": 2464,
         "memory_stall_cycles": 1249, "dequant_flops": 0,
         "quant_saved_bytes": 0},
    ),
    ("no-reuse", 40): (
        4402, {"load": 5168, "mpe": 476, "sfu": 663, "store": 3705}, 9,
        {"int8_macs": 186752, "sfu_flops": 9004, "hbm_read_bytes": 220100,
         "hbm_write_bytes": 13440, "onchip_read_bytes": 50184,
         "onchip_write_bytes": 50184, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2032, "buffer_stall_cycles": 2468,
         "memory_stall_cycles": 1236, "dequant_flops": 0,
         "quant_saved_bytes": 0},
    ),
    ("unoptimized", 0): (
        9734, {"load": 5305, "mpe": 470, "sfu": 573, "store": 5135}, 9,
        {"int8_macs": 171392, "sfu_flops": 6604, "hbm_read_bytes": 197668,
         "hbm_write_bytes": 19936, "onchip_read_bytes": 9368,
         "onchip_write_bytes": 9368, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2528, "buffer_stall_cycles": 1881,
         "memory_stall_cycles": 0, "dequant_flops": 0, "quant_saved_bytes": 0},
    ),
    ("unoptimized", 40): (
        9860, {"load": 5335, "mpe": 476, "sfu": 663, "store": 5135}, 9,
        {"int8_macs": 186752, "sfu_flops": 9004, "hbm_read_bytes": 232228,
         "hbm_write_bytes": 23776, "onchip_read_bytes": 10328,
         "onchip_write_bytes": 10328, "instructions": 79, "mpe_tiles": 47,
         "sfu_ops": 31, "dma_transfers": 2528, "buffer_stall_cycles": 1881,
         "memory_stall_cycles": 0, "dequant_flops": 0, "quant_saved_bytes": 0},
    ),
    "batched": (
        3888, {"load": 9575, "mpe": 728, "sfu": 1805, "store": 6955}, 0,
        {"int8_macs": 470528, "sfu_flops": 22720, "hbm_read_bytes": 260172,
         "hbm_write_bytes": 36224, "onchip_read_bytes": 93024,
         "onchip_write_bytes": 93024, "instructions": 153, "mpe_tiles": 59,
         "sfu_ops": 91, "dma_transfers": 3728, "buffer_stall_cycles": 0,
         "memory_stall_cycles": 1266, "dequant_flops": 0,
         "quant_saved_bytes": 0},
    ),
}


def _facts(result):
    return (result.cycles, result.engine_busy, result.n_flushes,
            result.counters.as_dict())


class TestExecutorResultsArePinned:
    @pytest.mark.parametrize("variant", sorted(PAPER_VARIANTS))
    @pytest.mark.parametrize("context_len", [0, 40])
    def test_paper_variants(self, variant, context_len, small_config, platform):
        config = AcceleratorConfig.variant(variant)
        program = StepCompiler(small_config, config, platform).lower(context_len)
        result = PipelineExecutor(config, platform).run(program)
        assert _facts(result) == PINNED_RUNS[variant, context_len]

    def test_batched_step_with_mixed_logits(self, small_config, platform):
        config = AcceleratorConfig.variant("full")
        step = StepCompiler(small_config, config, platform).compile_step(
            [0, 17, 40], [False, True, False])
        result = PipelineExecutor(config, platform).run(step.program)
        assert _facts(result) == PINNED_RUNS["batched"]
