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
"""

from __future__ import annotations

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
