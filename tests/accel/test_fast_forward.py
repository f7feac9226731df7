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
from repro.accel.pipeline import PipelineExecutor, _agree, _Checks, _rebuild, _Record, _Stream
from repro.accel.variants import PAPER_VARIANTS
from repro.compile.pipeline import StepCompiler
from repro.fpga.u280 import u280
from repro.llama.config import preset

from .kernel_oracle import KernelExecutor
from .strategies import periodic_cases, periodic_programs, programs


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
    return _Record(k=0, reach=0, floor=floor, fingerprint=(), live=live, pending=[],
                   tally=(), n_flushes=0)


class TestCanonicalForm:
    """Two live keys on one cycle are ordered by their parents, however
    old: the form must tell the orders apart, and ties from near-ties."""

    def test_same_cycle_keys_ordered_by_older_parents(self):
        early, late = (5, (-1,), 0), (6, (-1,), 0)
        first, second = (10, early, 0), (10, late, 0)
        assert _record([first, second]).form != \
            _record([second, first]).form
        assert _record([first, second]).form == \
            _record([(20, early, 0), (20, late, 0)], floor=20).form

    def test_equal_keys_are_not_merely_adjacent(self):
        parent = (5, (-1,), 0)
        tied = _record([(10, parent, 0), (10, (5, (-1,), 0), 0)])
        ordered = _record([(10, parent, 0), (10, (5, (-1,), 1), 0)])
        assert tied.form != ordered.form

    def test_recorded_parents_are_named_by_position(self):
        first, second = (10, (-1,), 0), (10, (-1,), 1)
        straight = _record([(11, first, 0), (12, second, 0)])
        crossed = _record([(11, second, 0), (12, first, 0)])
        assert straight.form != crossed.form


@st.composite
def _key_graphs(draw):
    """Keys as the executor makes them, ``(cycle, parent, index)``, on a
    few cycles so that many tie: some older than a floor of 10, the rest
    at or after it, each the child of an older key or of an earlier one."""
    keys = [(-1,)]
    for _ in range(draw(st.integers(2, 14))):
        parent = draw(st.sampled_from(keys))
        cycle = draw(st.integers(max(parent[0], 0), 12))
        keys.append((cycle, parent, draw(st.integers(0, 2))))
    return keys


@given(_key_graphs(), st.integers(0, 50))
def test_rebuilt_keys_compare_as_the_originals(keys, floor):
    """A jump lands on keys rebuilt from the form alone; they must order
    (and tie) as the keys the form was read from, old parents and all."""
    live = [key for key in keys if key[0] >= 10]
    rebuilt = _rebuild(_record(live).form[0], floor)
    at = _record(live).form[1]
    for a, x in zip(live, at):
        for b, y in zip(live, at):
            assert (a < b, a == b) == (rebuilt[x] < rebuilt[y], rebuilt[x] == rebuilt[y])


_CUTS = st.lists(st.integers(1, 59), max_size=12)


def _stream(signatures, cuts, seen):
    """``signatures`` cut into parts at ``cuts``.  Equal parts are one
    tuple, kept in the dict ``seen``, as a run's operators of one shape
    share one body; with ``seen`` None each part is its own tuple."""
    bounds = sorted({cut for cut in cuts if cut < len(signatures)}) + [len(signatures)]
    parts, start = [], 0
    for end in bounds:
        if end > start:
            part = tuple(signatures[start:end])
            parts.append(part if seen is None else seen.setdefault(part, part))
        start = end
    return _Stream(parts)


@given(st.lists(st.integers(0, 2), min_size=2, max_size=60), _CUTS, st.booleans(),
       st.data())
def test_the_periodicity_scan_finds_the_first_break(signatures, cuts, shared, data):
    period = data.draw(st.integers(1, len(signatures) - 1))
    start = data.draw(st.integers(period, len(signatures)))
    end = start
    while end < len(signatures) and signatures[end] == signatures[end - period]:
        end += 1
    stream = _stream(signatures, cuts, {} if shared else None)
    assert start + _agree(stream, start, stream, start - period) == end


@given(st.lists(st.integers(0, 2), max_size=60), st.lists(st.integers(0, 2), max_size=60),
       _CUTS, _CUTS, st.booleans(), st.data())
def test_the_scan_across_two_runs_finds_the_first_difference(a, b, a_cuts, b_cuts, shared,
                                                              data):
    """Two runs cut into parts anywhere, so equal parts meet at equal and
    at different offsets, and unequal ones at every alignment; shared or
    not, as two runs' equal bodies are one object or two."""
    i = data.draw(st.integers(0, len(a)))
    j = data.draw(st.integers(0, len(b)))
    d = 0
    while i + d < len(a) and j + d < len(b) and a[i + d] == b[j + d]:
        d += 1
    seen = {} if shared else None
    assert _agree(_stream(a, a_cuts, seen), i, _stream(b, b_cuts, seen), j) == d


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


# ----------------------------------------------------------------------
# Check points, kept per body and found as a run reaches them
# ----------------------------------------------------------------------
def _check_points_oracle(bodies, n_segments):
    """Every check point of a run, derived from its packets alone: inside
    each operator's runs of two or more equal signatures every
    ``n_segments``-th packet while two such strides remain, and each
    operator whose sequence of operators repeats from there for one full
    period more."""
    points, firsts, first = set(), [], 0
    for body in bodies:
        firsts.append(first)
        start = 0
        while start < len(body):
            end = start
            while end < len(body) and body.signatures[end] == body.signatures[start]:
                end += 1
            if end - start >= 2:
                points.update(range(first + start, first + end - 2 * n_segments + 1, n_segments))
            start = end
        first += len(body)
    ops = [body.signatures for body in bodies]
    for o, op in enumerate(ops):
        later = next((later for later in range(o + 1, len(ops)) if ops[later] == op), None)
        if later is not None and ops[o:later] == ops[later:2 * later - o]:
            points.add(firsts[o])
    return sorted(points)


def _assert_checks_match_the_oracle(program, n_segments, asked_from):
    bodies = [op.packets for op in program.ops if op.packets]
    checks = _Checks(bodies, _Stream([body.signatures for body in bodies]).firsts, n_segments)
    points = _check_points_oracle(bodies, n_segments)
    for k in asked_from:
        assert checks.after(k) == next((point for point in points if point > k), -1)


@given(st.one_of(periodic_programs(), programs()), st.integers(1, 8), st.data())
def test_check_points_are_the_runs_packets_check_points(program, n_segments, data):
    """Asked from the start, from every check on and from any boundary."""
    n_packets = sum(len(op) for op in program.ops)
    points = _check_points_oracle([op.packets for op in program.ops], n_segments)
    anywhere = data.draw(st.lists(st.integers(-1, n_packets + 1), max_size=8))
    _assert_checks_match_the_oracle(program, n_segments, [-1] + points + anywhere)


@pytest.mark.parametrize("variant", sorted(PAPER_VARIANTS))
def test_check_points_of_compiled_steps(variant):
    config = AcceleratorConfig.variant(variant)
    program = StepCompiler(preset("stories15M"), config, u280()).lower(40)
    n_packets = sum(len(op) for op in program.ops)
    _assert_checks_match_the_oracle(program, config.buffers.n_segments,
                                    range(-1, n_packets + 1))
