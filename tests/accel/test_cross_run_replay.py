"""Replay across runs: a ``PipelineExecutor`` follows its previous
untraced run wherever its machine state and the packets ahead match that
run's at a check, and jumps to that run's farthest later check they
reach.

Following must change nothing else: every ``StepResult`` field but
``packets_replayed`` equals a fresh executor's on the same program and
``kernel_oracle.KernelExecutor``'s, which walks every event.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.config import AcceleratorConfig
from repro.accel.pipeline import PipelineExecutor, StepResult
from repro.accel.variants import PAPER_VARIANTS
from repro.llama.config import preset

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
