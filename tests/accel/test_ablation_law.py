"""The paper's ablation as a law: pipelining and memory reuse never cost
cycles on one program — with one exception, pinned here.

The paper's Fig. 2 compares designs that differ in one optimisation at a
time.  On one program and one platform, the read–compute–write pipeline
(``pipeline=True``) overlaps a packet's load and store with its
neighbours' compute where the sequential controller runs them back to
back, and memory reuse (``memory_reuse=True``) recycles a staging
segment at once where the no-reuse pool flushes every ``n_segments``
releases.  Operator fusion is no such law (a fused program is another
program, and ``tests/integration/test_paper_claims.py`` allows it 2 %
above the unfused one), so it is not toggled here.

Each program is run in all four cells by fresh executors, and the law
is checked exactly, with no slack:

* **Compiled steps** (test-small and stories15M, 1–8 slots at any
  contexts, with and without logits, fused and not): pipelined cycles
  are at most sequential ones under either pool policy, and reuse cycles
  at most no-reuse ones under either discipline.
* **Generated programs** (``strategies.executor_cases``: ties, empty
  loads and stores, pools of one segment, flushes of zero cycles, one to
  32 channels): pipelined is at most sequential under either policy, and
  reuse at most no-reuse for the sequential controller.

**The exception: reuse under the pipeline, on one channel.**  A channel
serves transfers in the order they are issued, and a store is posted —
issued as soon as its packet computes, when the writer holds a segment
for it.  Reuse frees segments sooner, so it can let a large posted write
onto a channel ahead of a read the compute stage is about to wait on;
the no-reuse pool's flush holds that write back until after the read
was issued.  Earlier resources, a longer schedule: a list-scheduling
anomaly of first-come arbitration, not a simulator fault — every run
still obeys its cycle bracket, and the traced intervals show the order.
The two programs below, shrunk from generated ones, pin it; none of the
compiled steps tried shows it (their 32 channels keep a write from
blocking a read).  The sequential controller has one request in flight
and issues nothing while it waits, so a later read there never finds a
busier channel.  The examples come from the hypothesis profile: 100 by
default, 400 under ``--hypothesis-profile=thorough``.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.accel.instructions import Program, TilePacket
from repro.accel.pipeline import PipelineExecutor
from repro.compile.pipeline import StepCompiler
from repro.fpga.u280 import u280
from repro.graph.ops import ComputeUnit
from repro.llama.config import preset

from .strategies import executor_cases, named

_CELLS = [(pipeline, reuse) for pipeline in (True, False) for reuse in (True, False)]


def _cycles(config, platform, program):
    """``(pipeline, memory_reuse) -> cycles`` of ``program`` in every cell."""
    return {(pipeline, reuse): PipelineExecutor(
                config.replace(pipeline=pipeline, memory_reuse=reuse), platform
            ).run(program).cycles
            for pipeline, reuse in _CELLS}


def _assert_pipelining_pays(cycles):
    for reuse in (True, False):
        assert cycles[True, reuse] <= cycles[False, reuse], cycles


def test_generated_programs():
    @settings(derandomize=True, deadline=None, database=None)
    @given(executor_cases())
    def check(case):
        cycles = _cycles(*case)
        _assert_pipelining_pays(cycles)
        assert cycles[False, True] <= cycles[False, False], cycles

    check()


@functools.lru_cache(maxsize=None)
def _compiler(model: str, fused: bool) -> StepCompiler:
    config = AcceleratorConfig.variant("full" if fused else "no-fusion")
    return StepCompiler(preset(model), config, u280())


@st.composite
def _compiled_steps(draw):
    """A test-small or stories15M step of 1–8 slots, fused or not, at any
    contexts, each slot with or without logits."""
    compiler = _compiler(draw(st.sampled_from(["test-small", "stories15M"])),
                         draw(st.booleans()))
    n_slots = draw(st.integers(1, 8))
    contexts = draw(st.lists(st.integers(0, compiler.model_config.max_seq_len - 1),
                             min_size=n_slots, max_size=n_slots))
    logits = draw(st.lists(st.booleans(), min_size=n_slots, max_size=n_slots))
    return compiler.config, compiler.platform, compiler.compile_step(contexts, logits).program


def test_compiled_steps():
    @settings(derandomize=True, deadline=None, database=None)
    @given(_compiled_steps())
    def check(case):
        cycles = _cycles(*case)
        _assert_pipelining_pays(cycles)
        for pipeline in (True, False):
            assert cycles[pipeline, True] <= cycles[pipeline, False], cycles

    check()


_MPE, _SFU = ComputeUnit.MPE, ComputeUnit.SFU


def _program(*ops):
    """One operator per list of ``(unit, load, compute, store)`` packets."""
    return Program([named(f"op{o}", [TilePacket(*packet) for packet in packets])
                    for o, packets in enumerate(ops)])


def test_reuse_can_let_a_posted_write_ahead_of_a_read():
    """Packet 3 stores 4089 bytes at once with reuse (packet 0's segment
    is free), and packet 4's read, issued when packet 1's store frees a
    segment, queues behind it.  Without reuse packet 3 waits for the
    flush, where packet 4's read is issued first: one cycle less."""
    config = AcceleratorConfig(hbm_stripe=1, buffers=BufferConfig(n_segments=3,
                                                                  reuse_flush_cycles=0))
    program = _program([(_MPE, 0, 0, 0), (_MPE, 0, 0, 1), (_MPE, 0, 0, 1),
                        (_MPE, 0, 0, 4089), (_MPE, 1, 2, 1)])
    assert _cycles(config, u280(n_hbm_channels=1), program) == {
        (True, True): 223, (True, False): 222, (False, True): 223, (False, False): 287}


def test_reuse_can_cost_a_tenth_of_a_run():
    """With a 160-cycle flush: op2's 34 661-byte write is issued at once
    with reuse, ahead of its last packet's 36 092-byte read, which the
    compute stage then waits on; without reuse the write waits for the
    flush and goes after the read.  Reuse costs 319 cycles, 9.8 %."""
    config = AcceleratorConfig(hbm_stripe=2, buffers=BufferConfig(n_segments=4,
                                                                  reuse_flush_cycles=160))
    program = _program([(_SFU, 420, 1000, 0), (_MPE, 1665, 17, 274)],
                       [(_SFU, 2454, 1, 2718)],
                       [(_MPE, 560, 33, 28302), (_SFU, 0, 1, 34661),
                        (_MPE, 36092, 720, 79)])
    assert _cycles(config, u280(n_hbm_channels=1), program) == {
        (True, True): 3561, (True, False): 3242, (False, True): 3881, (False, False): 4106}
