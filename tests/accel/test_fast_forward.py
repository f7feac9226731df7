"""The cycle simulator's periodic fast-forward against the event kernel.

``PipelineExecutor`` jumps whole periods of a machine state that recurs
shifted in time (``StepResult.packets_replayed`` counts the packets it
jumped).  Jumping must change nothing else: on every generated program
``cycles``, ``engine_busy``, ``n_flushes`` and all ``RunCounters`` equal
those of ``kernel_oracle.KernelExecutor``, which walks every event — and
every program generated here does jump.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import AcceleratorConfig
from repro.accel.pipeline import PipelineExecutor, _periodic_until, _Record
from repro.compile.pipeline import StepCompiler
from repro.fpga.u280 import u280
from repro.llama.config import preset

from .kernel_oracle import KernelExecutor
from .strategies import periodic_cases


def _facts(result):
    return (result.cycles, result.engine_busy, result.n_flushes,
            result.counters.as_dict())


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
@pytest.mark.parametrize("pipeline", [True, False], ids=["pipelined", "sequential"])
def test_jumps_change_no_fact(pipeline, reuse):
    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(periodic_cases(pipeline, reuse))
    def check(case):
        config, platform, program = case
        result = PipelineExecutor(config, platform).run(program)
        assert _facts(result) == _facts(KernelExecutor(config, platform).run(program))
        assert result.packets_replayed > 0

    check()


def _record(live, floor=10):
    return _Record(k=0, floor=floor, live=live, pending=[], counters=[], busy=[],
                   totals=(0, 0, 0), n_flushes=0)


class TestCanonicalForm:
    """Two live keys on one cycle are ordered by their parents, however
    old: the form must tell the orders apart, and ties from near-ties."""

    def test_same_cycle_keys_ordered_by_older_parents(self):
        early, late = (5, (-1,), 0), (6, (-1,), 0)
        first, second = (10, early, 0), (10, late, 0)
        assert _record([first, second]).canonical()[0] != \
            _record([second, first]).canonical()[0]
        assert _record([first, second]).canonical()[0] == \
            _record([(20, early, 0), (20, late, 0)], floor=20).canonical()[0]

    def test_equal_keys_are_not_merely_adjacent(self):
        parent = (5, (-1,), 0)
        tied = _record([(10, parent, 0), (10, (5, (-1,), 0), 0)])
        ordered = _record([(10, parent, 0), (10, (5, (-1,), 1), 0)])
        assert tied.canonical()[0] != ordered.canonical()[0]

    def test_recorded_parents_are_named_by_position(self):
        first, second = (10, (-1,), 0), (10, (-1,), 1)
        straight = _record([(11, first, 0), (12, second, 0)])
        crossed = _record([(11, second, 0), (12, first, 0)])
        assert straight.canonical()[0] != crossed.canonical()[0]


@given(st.lists(st.integers(0, 2), min_size=2, max_size=60), st.data())
def test_the_periodicity_scan_finds_the_first_break(signatures, data):
    period = data.draw(st.integers(1, len(signatures) - 1))
    start = data.draw(st.integers(period, len(signatures)))
    end = start
    while end < len(signatures) and signatures[end] == signatures[end - period]:
        end += 1
    assert _periodic_until(signatures, start, period) == end


@pytest.fixture(scope="module")
def stories_step():
    """A stories15M decode step of the paper's full design at context 40."""
    config = AcceleratorConfig.variant("full")
    platform = u280()
    return config, platform, StepCompiler(preset("stories15M"), config, platform).lower(40)


def test_a_compiled_step_replays_most_of_its_packets(stories_step):
    """Its 500-tile classifier and the decoder layers after the first
    few are periodic stretches."""
    config, platform, program = stories_step
    result = PipelineExecutor(config, platform).run(program)
    assert result.packets_replayed >= 0.6 * result.counters.instructions
    assert _facts(result) == _facts(KernelExecutor(config, platform).run(program))


def test_a_traced_run_walks_every_packet_to_the_same_numbers(stories_step):
    config, platform, program = stories_step
    untraced = PipelineExecutor(config, platform).run(program)
    traced = PipelineExecutor(config.replace(trace_enabled=True), platform).run(program)
    assert untraced.packets_replayed > 0
    assert traced.packets_replayed == 0
    assert _facts(traced) == _facts(untraced)
    assert len(traced.spans) > untraced.counters.instructions
    assert untraced.spans is None
