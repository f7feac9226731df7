"""The analytical cycle bracket is a law: every run lands inside it.

``PipelineExecutor.run`` raises unless ``lower <= cycles <= upper`` and
the compute engines' busy cycles fit in the run (see
``repro.accel.pipeline._cycle_bracket`` for the bounds and their
arguments).  These tests pin the bracket on a hand-computed program,
pin the runs that rule out the fully serial lower bound ``D + F``, hold
the law on generated programs (traced, and periodic ones that jump), and
show that a broken simulation is caught.  The generated tests take their
example budget from the profile (``--hypothesis-profile=thorough``: 400).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.accel.instructions import Program, TilePacket
from repro.accel.pipeline import DISPATCH_CYCLES, PipelineExecutor, _cycle_bracket
from repro.fpga.hbm import MemorySystemModel
from repro.fpga.u280 import u280
from repro.graph.ops import ComputeUnit

from .strategies import executor_cases, named, periodic_cases


def _program(*ops):
    """One operator per ``(name, unit, [(load, compute, store), ...])``."""
    return Program([named(name, [TilePacket(unit, load, compute, store)
                                 for load, compute, store in tiles], unit)
                    for name, unit, tiles in ops])


def _bracket(config, platform, program):
    ops = [op for op in program.ops if op.packets]
    return _cycle_bracket(ops, sum(len(op) for op in ops), program.totals.compute_cycles,
                          config, platform)


def _config(pipeline, reuse, **buffers):
    return AcceleratorConfig(pipeline=pipeline, memory_reuse=reuse, hbm_stripe=2,
                             buffers=BufferConfig(**buffers))


def _assert_law(config, platform, program):
    result = PipelineExecutor(config, platform).run(program)
    lower, upper = _bracket(config, platform, program)
    assert lower <= result.cycles <= upper
    assert result.engine_busy["mpe"] + result.engine_busy["sfu"] <= result.cycles
    return result


#: Two operators on two HBM channels (63.89 bytes per cycle each, 64
#: cycles of latency), stripe 2, a pool of two segments flushing in 160.
#: A 1000-byte load is two 500-byte stripes, 8 cycles of bus each: bus 16,
#: xfer 8 + 64 = 72.  A 100-byte store is two 50-byte stripes: bus 2,
#: xfer 1 + 64 = 65.  XL = 2 * 72 = 144, XS = 65, M = ceil(34 / 2) = 17,
#: C = 30 + 30 + 10 = 70, D = 2 * 24 = 48, F = 3 // 2 * 160 = 160 without
#: reuse.  The pipelined chain: 24 + xfer(1000) + C + xfer(100) = 24 + 72
#: + 70 + 65 = 231.
TWO_OPS = _program(("matmul", ComputeUnit.MPE, [(1000, 30, 0)] * 2),
                   ("norm", ComputeUnit.SFU, [(0, 10, 100)]))


class TestPinnedBracket:
    @pytest.mark.parametrize("pipeline, reuse, bracket", [
        # max(M, C) + F, D or the chain, whichever is largest; upper
        # XL + C + XS + D (+ F)
        (True, True, (231, 327)),
        (True, False, (231, 487)),
        # max(max(M, C) + F, XL + C + max(D, F))
        (False, True, (262, 327)),
        (False, False, (374, 487)),
    ])
    def test_two_operators(self, pipeline, reuse, bracket):
        platform = u280(n_hbm_channels=2)
        config = _config(pipeline, reuse, n_segments=2)
        assert _bracket(config, platform, TWO_OPS) == bracket
        _assert_law(config, platform, TWO_OPS)

    def test_empty_program(self):
        config, platform = AcceleratorConfig(), u280()
        assert _bracket(config, platform, Program()) == (0, 0)
        assert _assert_law(config, platform, Program()).cycles == 0


class TestDispatchOverlapsFlush:
    """Two one-packet operators that move and compute nothing, on a
    one-segment pool without reuse: each packet's release starts a
    160-cycle flush, and the second operator's dispatch runs inside the
    first flush.  The run takes 24 + 2 * 160 = 344 cycles, fewer than
    ``D + F`` = 368, so neither discipline's lower bound may add them."""

    PROGRAM = _program(("a", ComputeUnit.SFU, [(0, 0, 0)]),
                       ("b", ComputeUnit.SFU, [(0, 0, 0)]))

    @pytest.mark.parametrize("pipeline", [False, True], ids=["sequential", "pipelined"])
    def test_regression(self, pipeline):
        platform = u280(n_hbm_channels=1)
        config = _config(pipeline, False, n_segments=1, reuse_flush_cycles=160)
        result = _assert_law(config, platform, self.PROGRAM)
        assert (result.cycles, result.n_flushes) == (DISPATCH_CYCLES + 2 * 160, 2)
        assert 2 * DISPATCH_CYCLES + 2 * 160 > result.cycles
        assert _bracket(config, platform, self.PROGRAM) == (320, 368)


class TestLawOnGeneratedRuns:
    @settings(derandomize=True, deadline=None, database=None)
    @given(executor_cases())
    def test_traced_programs(self, case):
        _assert_law(*case)

    @pytest.mark.parametrize("pipeline", [False, True], ids=["sequential", "pipelined"])
    @pytest.mark.parametrize("reuse", [False, True], ids=["no-reuse", "reuse"])
    def test_periodic_programs(self, pipeline, reuse):
        @settings(derandomize=True, deadline=None, database=None)
        @given(periodic_cases(pipeline, reuse))
        def check(case):
            _assert_law(*case)

        check()


def test_broken_simulation_raises(monkeypatch):
    """A memory system whose transfers complete on their issue cycle
    finishes a bandwidth-bound program faster than its data can stream:
    the run refuses to report it."""
    config = AcceleratorConfig(trace_enabled=False)
    platform = u280()
    program = _program(("stream", ComputeUnit.MPE, [(1 << 16, 1, 0)] * 64))
    PipelineExecutor(config, platform).run(program)  # sound as it stands
    monkeypatch.setattr(MemorySystemModel, "issue_split",
                        lambda self, n_bytes, stripe, now: (now, []))
    with pytest.raises(RuntimeError, match="outside the analytical bracket"):
        PipelineExecutor(config, platform).run(program)
