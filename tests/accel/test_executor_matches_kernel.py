"""The executor's two recurrences against the event kernel they replaced.

``PipelineExecutor`` orders same-cycle events by causal keys instead of
running them through a queue; ``kernel_oracle.KernelExecutor`` is the
process simulation it had before, kept verbatim.  Every case requires
the two to agree on ``cycles``, ``engine_busy``, ``n_flushes``, all
``RunCounters`` and — traced — the whole event list, in order: the
executor's cycle spans, each with the category the timeline export
gives its lane, against the kernel's recorded trace.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from repro.accel.config import AcceleratorConfig
from repro.accel.instructions import OpProgram, Program, TilePacket
from repro.accel.pipeline import DISPATCH_CYCLES, PipelineExecutor
from repro.compile.pipeline import StepCompiler
from repro.fpga.u280 import u280
from repro.graph.ops import ComputeUnit
from repro.graph.sharding import ShardSpec
from repro.quant.config import QuantConfig

from .kernel_oracle import KernelExecutor, KernelResult, trace_events
from .strategies import executor_cases

#: Every (pipeline, memory_reuse, operator_fusion) design point.
ALL_FLAGS = pytest.mark.parametrize(
    "pipeline, memory_reuse, operator_fusion",
    list(itertools.product((True, False), repeat=3)))


def _facts(result):
    events = [(e.engine, e.label, e.start, e.end, e.category)
              for e in (result.trace.events if isinstance(result, KernelResult)
                        else trace_events(result.spans))]
    return (result.cycles, result.engine_busy, result.n_flushes,
            result.counters.as_dict(), events)


def _assert_matches_kernel(config, platform, program):
    assert config.trace_enabled
    expected = _facts(KernelExecutor(config, platform).run(program))
    assert _facts(PipelineExecutor(config, platform).run(program)) == expected
    return expected


class TestGeneratedPrograms:
    # A fixed budget, derandomised: the same 400 programs on every run
    # (about half a million trace events) in a few seconds.
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(executor_cases())
    def test_every_fact_and_the_trace_equal_the_kernels(self, case):
        _assert_matches_kernel(*case)


class TestCompiledPrograms:
    @ALL_FLAGS
    def test_variants_single_slot_and_batched(self, pipeline, memory_reuse,
                                              operator_fusion, small_config):
        config = AcceleratorConfig(pipeline=pipeline, memory_reuse=memory_reuse,
                                   operator_fusion=operator_fusion,
                                   trace_enabled=True)
        platform = u280()
        compiler = StepCompiler(small_config, config, platform)
        for context_len in (0, 7, 40):
            _assert_matches_kernel(config, platform, compiler.lower(context_len))
        for contexts, need_logits in [
            ([3], [True]),
            ([0, 17, 40], [False, True, False]),
            ([5, 5, 6, 9, 30], [True, False, False, True, True]),
            (list(range(8)), [i % 3 == 0 for i in range(8)]),
        ]:
            step = compiler.compile_step(contexts, need_logits)
            _assert_matches_kernel(config, platform, step.program)

    @pytest.mark.parametrize("mode", ["int8", "int4"])
    @pytest.mark.parametrize("variant", ["full", "unoptimized"])
    def test_quantised_programs(self, variant, mode, small_config):
        config = AcceleratorConfig.variant(
            variant, trace_enabled=True,
            quant=QuantConfig.from_mode(mode, quant_kv=True))
        platform = u280(n_hbm_channels=2)
        step = StepCompiler(small_config, config, platform).compile_step(
            [2, 11, 33], [True, False, True])
        facts = _assert_matches_kernel(config, platform, step.program)
        assert facts[3]["quant_saved_bytes"] > 0

    @pytest.mark.parametrize("n_channels, stripe", [(32, 32), (2, 16)],
                             ids=["every-channel-each-transfer", "stripe-clamped"])
    @pytest.mark.parametrize("variant", ["full", "no-reuse", "unoptimized"])
    def test_stripe_regimes(self, variant, n_channels, stripe, small_config):
        """A transfer that takes every channel there is, and a stripe
        count clamped to two channels that are never idle."""
        config = AcceleratorConfig.variant(variant, trace_enabled=True,
                                           hbm_stripe=stripe)
        platform = u280(n_hbm_channels=n_channels)
        compiler = StepCompiler(small_config, config, platform)
        _assert_matches_kernel(config, platform, compiler.lower(7))
        step = compiler.compile_step([0, 17, 40], [False, True, False])
        facts = _assert_matches_kernel(config, platform, step.program)
        assert {e[0] for e in facts[4] if e[0].startswith("hbm:")} == \
            {f"hbm:hbm{i}" for i in range(n_channels)}

    @pytest.mark.parametrize("variant", ["full", "no-reuse", "no-pipeline"])
    def test_tensor_parallel_shard(self, variant, small_config):
        config = AcceleratorConfig.variant(variant, trace_enabled=True)
        platform = u280()
        compiler = StepCompiler(small_config, config, platform,
                                shard=ShardSpec.from_config(small_config, 2))
        step = compiler.compile_step([4, 20], [True, True])
        _assert_matches_kernel(config, platform, step.program)


def _tile(compute, load=0, store=0):
    return TilePacket(ComputeUnit.MPE, load, compute, store)


class TestOperatorsWithoutPackets:
    """The rule the kernel-based executor did not have: it charged an
    empty operator's dispatch sequentially (82 cycles for the program
    below) but keyed the pipelined dispatch by the operator's first
    packet, so the same operator was free there (34)."""

    @ALL_FLAGS
    def test_an_empty_operator_dispatches_nothing_and_costs_nothing(
            self, pipeline, memory_reuse, operator_fusion):
        config = AcceleratorConfig(pipeline=pipeline, memory_reuse=memory_reuse,
                                   operator_fusion=operator_fusion)
        executor = PipelineExecutor(config, u280())
        work = OpProgram("work", ComputeUnit.MPE, [_tile(10)])
        empty = lambda name: OpProgram(name, ComputeUnit.SFU, [])
        padded = executor.run(Program([empty("a"), work, empty("b")]))
        plain = executor.run(Program([work]))
        assert padded.cycles == plain.cycles == DISPATCH_CYCLES + 10
        assert padded.counters.as_dict() == plain.counters.as_dict()
        assert padded.counters.instructions == 1

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_a_program_of_empty_operators_takes_no_time(self, pipeline):
        config = AcceleratorConfig(pipeline=pipeline)
        program = Program([OpProgram("a", ComputeUnit.SFU, [])] * 3)
        result = PipelineExecutor(config, u280()).run(program)
        assert result.cycles == 0 and result.counters.instructions == 0


class TestLongPrograms:
    @pytest.mark.parametrize("reuse", [True, False])
    def test_twenty_thousand_packets_pipelined(self, reuse):
        """Keys nest the keys of the entries that caused them, so a key is
        as deep as the program is long — but a comparison only descends
        while cycles tie, and that is a few levels in a program whose
        packets take time.  (Nor does dropping the last reference to a
        20 000-level tuple overflow the C stack.)"""
        config = AcceleratorConfig(memory_reuse=reuse)
        packets = [_tile(7 + i % 5, load=4096 if i % 3 else 0,
                         store=64 if i % 4 == 0 else 0)
                   for i in range(20_000)]
        program = Program([
            OpProgram(f"op{o}", ComputeUnit.MPE, packets[o:o + 500])
            for o in range(0, len(packets), 500)
        ])
        result = PipelineExecutor(config, u280()).run(program)
        assert result.counters.instructions == 20_000
        assert result.cycles > sum(p.compute_cycles for p in packets)
        assert (result.n_flushes > 0) == (not reuse)
