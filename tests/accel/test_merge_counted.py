"""The counted batch merge against the slot-walking merge it replaced.

``merge_batch_programs`` groups a step's slots by the identity of each
operator's packet tuple and sums weight tiles once per group, times the
group's size; ``merge_oracle.merge_batch_programs`` walks every slot.
Generated steps mix contexts, ``need_logits`` bodies (programs of
different lengths), speculative verify runs, quantised and TP-shard
views, and slots lowered by a fresh compiler that shares nothing with
the others beside slots of one long-lived step compiler — so weight
tiles merge over shared groups and over groups of one.  Ops, packets and
labels must be equal.

The merger keeps the packets it builds on the operators it built them
from, so a second test merges a drawn sequence of steps through one
long-lived step compiler — repeated batch sizes, slot indices used
again, logits mixes and verify runs — dropping each step's fresh
programs and collecting garbage in between: every step must still equal
the oracle, and later steps must reuse packets earlier ones built.
"""

from __future__ import annotations

import gc
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.batching import merge_batch_programs
from repro.accel.compiler import ProgramCompiler

from . import merge_oracle
from .strategies import graph_views, lowering_targets


@st.composite
def _steps(draw):
    """A design point, a view and 1–16 slots: (context, need_logits,
    lowered by a fresh compiler rather than the step compiler), plus
    verify-run ids or None."""
    config, plan = draw(lowering_targets())
    view = draw(graph_views())
    n_slots = draw(st.integers(1, 16))
    slots = draw(st.lists(
        st.tuples(st.integers(1, view.config.max_seq_len - 1),
                  st.booleans(), st.booleans()),
        min_size=n_slots, max_size=n_slots))
    run_ids = None
    if draw(st.booleans()):
        # Consecutive slots of one run share an id.
        run_ids, run = [], 0
        for _ in range(n_slots):
            run += draw(st.booleans())
            run_ids.append(run)
    return config, plan, view, slots, run_ids


def test_counted_merge_matches_the_slot_walking_merge():
    groups = Counter()

    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(_steps())
    def check(step):
        config, plan, view, slots, run_ids = step
        shared = view.step_compiler(config)
        programs = []
        for context, logits, fresh in slots:
            programs.append(
                ProgramCompiler(config, plan=plan).compile(view.graph(context, logits))
                if fresh else shared.lower(context, logits, plan))
        merged = merge_batch_programs(programs, config.mpe, run_ids=run_ids)
        expected = merge_oracle.merge_batch_programs(
            programs, config.mpe, run_ids=run_ids)
        assert merged.ops == expected.ops
        assert merged.labels() == expected.labels()
        if len(programs) == 1:
            return
        for j, lead in enumerate(programs[0].ops):
            if not any(packet.weight_bytes for packet in lead.packets):
                continue
            sizes = Counter(id(program.ops[j].packets) for program in programs
                            if j < len(program.ops))
            groups.update("shared" if n > 1 else "singleton"
                          for n in sizes.values())

    check()
    # Weight tiles merged over groups of several slots and groups of one.
    assert groups["shared"] and groups["singleton"]


@st.composite
def _step_sequences(draw):
    """A design point, a view and 2–6 steps of 1–6 slots each, every
    slot's context drawn from three, so later steps meet operators
    earlier ones merged; one slot in three is lowered fresh."""
    config, plan = draw(lowering_targets())
    view = draw(graph_views())
    contexts = st.sampled_from(draw(st.lists(
        st.integers(1, view.config.max_seq_len - 1), min_size=3, max_size=3)))
    steps = []
    for _ in range(draw(st.integers(2, 6))):
        n_slots = draw(st.integers(1, 6))
        slots = draw(st.lists(
            st.tuples(contexts, st.booleans(), st.sampled_from([False, False, True])),
            min_size=n_slots, max_size=n_slots))
        run_ids = None
        if draw(st.booleans()):
            run_ids, run = [], 0
            for _ in range(n_slots):
                run += draw(st.booleans())
                run_ids.append(run)
        steps.append((slots, run_ids))
    return config, plan, view, steps


def test_every_step_of_a_long_lived_compiler_matches_the_oracle():
    reused = Counter()

    @settings(derandomize=True, deadline=None, database=None)
    @given(_step_sequences())
    def check(sequence):
        config, plan, view, steps = sequence
        shared = view.step_compiler(config)
        built = set()   # ids of packets earlier steps merged; kept alive below
        alive = []
        for slots, run_ids in steps:
            programs = [
                ProgramCompiler(config, plan=plan).compile(view.graph(context, logits))
                if fresh else shared.lower(context, logits, plan)
                for context, logits, fresh in slots]
            merged = merge_batch_programs(programs, config.mpe, run_ids=run_ids)
            expected = merge_oracle.merge_batch_programs(
                programs, config.mpe, run_ids=run_ids)
            assert merged.ops == expected.ops
            assert merged.labels() == expected.labels()
            if len(programs) > 1:
                packets = list(merged.packets())
                reused["packets"] += sum(id(p) in built for p in packets)
                built.update(id(p) for p in packets)
                alive.append(packets)
            del programs, merged, expected
            gc.collect()

    # Everything alive before the test is moved out of the collector's
    # sight, so the collection between steps scans only what the test made.
    gc.freeze()
    try:
        check()
    finally:
        gc.unfreeze()
    # Later steps issued packets an earlier step of the same compiler built.
    assert reused["packets"]
