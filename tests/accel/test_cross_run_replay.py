"""Replay across runs: a ``PipelineExecutor`` follows its previous
untraced run wherever its machine state and the packets ahead match that
run's at a check, and jumps to that run's farthest later check they
reach.

Following must change nothing else: every ``StepResult`` field but
``packets_replayed`` equals a fresh executor's on the same program and
``kernel_oracle.KernelExecutor``'s, which walks every event.  A jump
needs equal canonical forms besides equal fingerprints: the last tests
give ``_Periods`` states whose fingerprints match and whose forms do
not, in one run and across two.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.accel.memory_manager import BufferPool
from repro.accel.pipeline import (_NO_CHECKS, _ROOT, PipelineExecutor, StepResult, _Periods,
                                  _Stream)
from repro.accel.variants import PAPER_VARIANTS
from repro.fpga.hbm import MemorySystemModel
from repro.fpga.u280 import u280
from repro.llama.config import preset
from repro.sim.stats import RunCounters

from .kernel_oracle import KernelExecutor
from .strategies import periodic_sequence_cases


def _facts(result):
    """Every field of a ``StepResult`` but the packets it replayed."""
    return {f.name: getattr(result, f.name) for f in fields(StepResult)
            if f.name != "packets_replayed"}


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
@pytest.mark.parametrize("pipeline", [True, False], ids=["pipelined", "sequential"])
def test_following_the_previous_run_changes_no_fact(pipeline, reuse):
    followed = []

    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(periodic_sequence_cases(pipeline, reuse))
    def check(case):
        config, platform, programs = case
        executor = PipelineExecutor(config, platform)
        for program in programs:
            result = executor.run(program)
            fresh = PipelineExecutor(config, platform).run(program)
            assert _facts(result) == _facts(fresh)
            assert _facts(result) == _facts(KernelExecutor(config, platform).run(program))
            followed.append(result.packets_replayed > fresh.packets_replayed)

    check()
    # The generated sequences do follow: most later runs jump further
    # than a fresh executor's (about 60 %).
    assert sum(followed) > 0.5 * len(followed)


@pytest.mark.parametrize("variant", PAPER_VARIANTS)
def test_the_paper_positions_follow_each_other(variant):
    """The paper experiment at stride 32: one accelerator per variant
    times every sampled position, each after the one before."""
    accelerator = SpeedLLMAccelerator(preset("stories15M"), AcceleratorConfig.variant(variant))
    timing = accelerator.timing
    for n, position in enumerate(accelerator._sample_positions(6 + 128, 32)):
        step = timing.compile_step([position])
        result = timing.simulate(step)
        fresh = PipelineExecutor(timing.config, timing.platform).run(step.program)
        assert _facts(result) == _facts(fresh)
        if n > 0:
            assert result.packets_replayed > fresh.packets_replayed


def test_a_traced_run_after_an_untraced_one_walks_every_packet():
    config = AcceleratorConfig.variant("full")
    accelerator = SpeedLLMAccelerator(preset("stories15M"), config)
    timing = accelerator.timing
    first, second = (timing.compile_step([position]).program for position in (32, 64))
    executor = PipelineExecutor(config, timing.platform)
    executor.run(first)
    untraced = executor.run(second)
    assert untraced.packets_replayed > PipelineExecutor(config, timing.platform).run(
        second).packets_replayed
    executor.config = config.replace(trace_enabled=True)
    traced = executor.run(second)
    assert traced.packets_replayed == 0
    assert len(traced.spans) > traced.counters.instructions
    assert {**_facts(traced), "spans": None} == _facts(untraced)


def test_a_run_on_another_configuration_follows_nothing():
    """The reference is kept with the configuration it ran under: a
    no-reuse pool's states before its first flush do not tell two flush
    costs apart, so following a run under another one would be wrong."""
    config = AcceleratorConfig.variant("no-reuse")
    accelerator = SpeedLLMAccelerator(preset("stories15M"), config)
    timing = accelerator.timing
    first, second = (timing.compile_step([position]).program for position in (32, 64))
    executor = PipelineExecutor(config, timing.platform)
    executor.run(first)
    executor.config = other = config.replace(
        buffers=replace(config.buffers, reuse_flush_cycles=24))
    assert executor.run(second) == PipelineExecutor(other, timing.platform).run(second)


# ----------------------------------------------------------------------
# The canonical form decides
# ----------------------------------------------------------------------
#: One packet signature, repeated: any two stretches of packets agree.
_SIGNATURES = [(64, 7, 0, True, False)] * 40


def _periods(reference=None):
    platform = u280(n_hbm_channels=2)
    return _Periods(_Stream([tuple(_SIGNATURES)]), _NO_CHECKS,
                    MemorySystemModel(platform.hbm, platform.clock_hz),
                    BufferPool(BufferConfig(), reuse=True), RunCounters(),
                    {"load": 0, "mpe": 0, "sfu": 0, "store": 0}, reference)


def _live(floor, back):
    """One live key at ``floor`` caused by a key ``back`` cycles earlier.
    A fingerprint reads only the live key's cycle; the canonical form
    holds the cause too when it is at or after the floor (``back`` 0)."""
    return [(floor, (floor - back, _ROOT, 0), 0)]


@pytest.mark.parametrize("back", [0, 1], ids=["cause-in-form", "cause-before-floor"])
def test_a_recurring_fingerprint_of_another_form_is_not_repeated(back):
    """Two checks of one run with equal fingerprints, two packets apart,
    with room for whole periods ahead: the run jumps only when their
    canonical forms are equal too."""
    periods = _periods()
    assert periods.observe(2, 2, 10, (), _live(10, back), 0) is None
    jump = periods.observe(4, 4, 20, (), _live(20, 1), 0)
    assert (jump is not None) == (back == 1)
    assert (periods.replayed > 0) == (back == 1)


@pytest.mark.parametrize("back", [0, 1], ids=["same-form", "other-form"])
def test_the_previous_runs_fingerprint_of_another_form_is_not_followed(back):
    """A run meeting a state of the previous run's fingerprint, with the
    same packets ahead and a later check of that run within them, follows
    it only when their canonical forms are equal too."""
    previous = _periods()
    previous.observe(2, 2, 10, (), _live(10, 0), 0)
    previous.observe(30, 30, 100, ("later",), _live(100, 5), 0)
    periods = _periods(previous.trajectory)
    jump = periods.observe(2, 2, 10, (), _live(10, back), 0)
    assert (jump is not None) == (back == 0)
    assert periods.replayed == (28 if back == 0 else 0)
