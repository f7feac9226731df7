"""An operator is lowered once per compiler, and a step's context only
once per window.

``ProgramCompiler`` keeps one immutable ``OpProgram`` per lowering
signature and hands it to every graph holding an operator of that
signature.  The differential test compiles generated graphs twice: once
through a long-lived compiler (shared by every example with the same
design point and tiling plan, so its memo holds graphs of other models,
shards, quantisations, fusion settings and context lengths) and once
through a fresh compiler per graph, which can share nothing.  Every
packet, label included, must be equal.

``StepCompiler.lower`` builds, fuses and lowers a whole step once per
``(include_logits, plan)`` and, per context, only the window operators
(KV append and attention) it splices in.  Its oracle is the per-context
build: the full step graph, fused when the design fuses, lowered by a
fresh ``ProgramCompiler``.  Name, metadata and every packet must be
equal, whichever context the long-lived compiler built its template from.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.compiler import ProgramCompiler
from repro.accel.config import AcceleratorConfig
from repro.accel.instructions import Program
from repro.accel.variants import PAPER_VARIANTS
from repro.compile.pipeline import StepCompiler
from repro.compile.tiling import DEFAULT_PLAN, TilingPlan
from repro.fpga.u280 import u280
from repro.graph.builder import GraphBuilder
from repro.graph.fusion import fuse_graph
from repro.graph.ops import OpKind
from repro.graph.sharding import ShardSpec
from repro.llama.config import preset
from repro.llama.quantization import QuantSpec
from repro.quant.config import QuantConfig

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


# ----------------------------------------------------------------------
# The hoisted step lowering against a per-context build
# ----------------------------------------------------------------------
#: Each model with the stride of the contexts drawn for it.
_CONTEXT_STRIDE = {"test-micro": 1, "test-small": 1, "stories15M": 7}
_PRECISIONS = {
    "w8": QuantConfig.datapath(8),
    "fp32": QuantConfig.fp32(),
    "int8-kv8": QuantConfig(weights=QuantSpec(8, 16), kv=QuantSpec(8, 16)),
    "int4-kv8": QuantConfig(weights=QuantSpec(4, 16), kv=QuantSpec(8, 16)),
}


def _step_compiler(model: str, variant: str, precision: str, tp: int) -> StepCompiler:
    config = preset(model)
    shard = ShardSpec.from_config(config, tp) if tp > 1 else None
    design = AcceleratorConfig.variant(variant).replace(quant=_PRECISIONS[precision])
    return StepCompiler(config, design, u280(), shard=shard)


#: Long-lived compilers, as a serving engine keeps one: each example
#: lowers through templates an earlier example may have built.
_long_lived_step_compiler = functools.lru_cache(maxsize=None)(_step_compiler)


def _per_context_build(compiler: StepCompiler, context: int, logits: bool,
                       plan: TilingPlan) -> Program:
    """The oracle: the full step graph of ``context``, fused when the
    design fuses, lowered by a fresh compiler."""
    graph = GraphBuilder(compiler.model_config, shard=compiler.shard,
                         quant=compiler.config.quant,
                         ).build_decode_step(context, include_logits=logits)
    if compiler.config.operator_fusion:
        graph = fuse_graph(graph).graph
    return ProgramCompiler(compiler.config, plan=plan).compile(graph)


def _assert_same(program: Program, reference: Program) -> None:
    assert program.name == reference.name
    assert program.metadata == reference.metadata
    assert program.ops == reference.ops


@st.composite
def _grid_points(draw):
    """One point of the grid: a model × a paper variant × a precision ×
    TP 1 or 2 × logits on or off × one of the first two candidate plans,
    with 1–3 of the model's contexts (every 7th on stories15M)."""
    model = draw(st.sampled_from(sorted(_CONTEXT_STRIDE)))
    key = (model, draw(st.sampled_from(sorted(PAPER_VARIANTS))),
           draw(st.sampled_from(sorted(_PRECISIONS))), draw(st.sampled_from([1, 2])))
    stride = _CONTEXT_STRIDE[model]
    last = (preset(model).max_seq_len - 1) // stride
    contexts = draw(st.lists(st.integers(0, last).map(lambda i: i * stride),
                             min_size=1, max_size=3))
    return key, draw(st.sampled_from([0, 1])), draw(st.booleans()), contexts


def test_hoisted_lowering_matches_a_per_context_build():
    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(_grid_points())
    def check(point):
        key, plan_index, logits, contexts = point
        compiler = _long_lived_step_compiler(*key)
        plan = compiler.plans[min(plan_index, len(compiler.plans) - 1)]
        for context in contexts:
            _assert_same(compiler.lower(context, logits, plan),
                         _per_context_build(compiler, context, logits, plan))

    check()


@pytest.mark.parametrize("variant", ["full", "no-fusion"])
def test_programs_do_not_depend_on_the_template_context(variant):
    """One compiler asked for every context in descending order and one
    asked in shuffled order build their templates from different
    contexts, and both return the per-context build at every context."""
    contexts = list(range(preset("test-small").max_seq_len))
    shuffled = contexts[:]
    random.Random(0).shuffle(shuffled)
    for order in (contexts[::-1], shuffled):
        compiler = _step_compiler("test-small", variant, "int8-kv8", 2)
        for context in order:
            for logits in (True, False):
                _assert_same(compiler.lower(context, logits),
                             _per_context_build(compiler, context, logits,
                                                DEFAULT_PLAN))
