"""An operator is lowered once per compiler.

``ProgramCompiler`` keeps one immutable ``OpProgram`` per lowering
signature and hands it to every graph holding an operator of that
signature.  The differential test compiles generated graphs twice: once
through a long-lived compiler (shared by every example with the same
design point and tiling plan, so its memo holds graphs of other models,
shards, quantisations, fusion settings and context lengths) and once
through a fresh compiler per graph, which can share nothing.  Every
packet, label included, must be equal.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.compiler import ProgramCompiler
from repro.accel.config import AcceleratorConfig
from repro.compile.tiling import DEFAULT_PLAN, TilingPlan
from repro.graph.ops import OpKind

from .strategies import GraphView, graph_views, lowering_targets


@functools.lru_cache(maxsize=None)
def _long_lived(config: AcceleratorConfig, plan: TilingPlan) -> ProgramCompiler:
    return ProgramCompiler(config, plan=plan)


@st.composite
def _slot_graphs(draw):
    """2–6 slot shapes, each of its own view: contexts 1…max_seq_len−1,
    with and without logits."""
    slots = []
    for view in draw(st.lists(graph_views(), min_size=2, max_size=6)):
        context = draw(st.integers(1, view.config.max_seq_len - 1))
        slots.append((view, context, draw(st.booleans())))
    return slots


def test_memoised_lowering_matches_a_fresh_compiler():
    shared_ops = 0

    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(lowering_targets(), _slot_graphs())
    def check(target, slots):
        nonlocal shared_ops
        config, plan = target
        seen = set()
        for view, context, logits in slots:
            graph = view.graph(context, logits)
            memoised = _long_lived(config, plan).compile(graph)
            fresh = ProgramCompiler(config, plan=plan).compile(graph)
            assert memoised.name == fresh.name
            assert memoised.metadata == fresh.metadata
            assert memoised.ops == fresh.ops
            shared_ops += sum(id(op.packets) in seen for op in memoised.ops)
            seen.update(id(op.packets) for op in memoised.ops)

    check()
    # Later graphs of an example reused operators lowered for earlier ones.
    assert shared_ops > 0


def test_projections_are_shared_across_contexts_and_attention_is_not():
    view = GraphView(model="test-small", fused=False, quant="w8", tp=1)
    compiler = ProgramCompiler(AcceleratorConfig(), plan=DEFAULT_PLAN)
    graphs = [view.graph(context, True) for context in (37, 60)]
    short, long = [compiler.compile(graph) for graph in graphs]
    kinds = {op.name: op.kind for op in graphs[0].topological_order()}
    projections = [name for name, kind in kinds.items() if kind is OpKind.MATMUL]
    attention = [name for name, kind in kinds.items()
                 if kind in (OpKind.ATTN_SCORE, OpKind.ATTN_CONTEXT)]
    assert projections and attention
    for a, b in zip(short.ops, long.ops):
        assert a.op_name == b.op_name
        if a.op_name in projections:
            assert a.packets is b.packets
        if a.op_name in attention:
            assert a.packets is not b.packets
            assert a.packets != b.packets
