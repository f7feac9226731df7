"""A step is lowered once per tiling plan, and its context only once per
window; a slot without logits runs the same program's body; and an
operator is lowered once per shape.

``StepCompiler.lower`` builds, fuses and lowers a whole step once per
plan and, per context, only the window operators (KV append and
attention) it splices in.  A slot without logits takes the operators up
to the one writing ``hidden_state``.  Its oracle is the per-context
build: the full step graph, fused when the design fuses, cut after the
hidden state for a slot without logits, each operator lowered by a
fresh ``ProgramCompiler`` (so no memo of one is involved).  Every packet
and every label must be equal, whichever context the long-lived
compiler built its template from.

``ProgramCompiler`` memoises each operator shape for its lifetime: a
long-lived compiler, shared by every model, precision and shard view of
one design point and plan, must lower every graph as that memo-free
lowering does, while every decoder layer's projections share one packet
body and a classifier of hundreds of tiles holds at most three packets.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.compiler import ProgramCompiler
from repro.accel.config import AcceleratorConfig
from repro.accel.instructions import Program
from repro.accel.variants import PAPER_VARIANTS
from repro.compile.pipeline import StepCompiler, _Template
from repro.compile.tiling import DEFAULT_PLAN, TilingPlan, candidate_plans
from repro.fpga.u280 import u280
from repro.graph.builder import GraphBuilder, hidden_state
from repro.graph.fusion import fuse_graph
from repro.graph.graph import Graph
from repro.graph.ops import OpKind
from repro.graph.sharding import ShardSpec
from repro.llama.config import preset
from repro.llama.quantization import QuantSpec
from repro.quant.config import QuantConfig

from .strategies import LOWERING_MODELS, body_graph


def test_projections_are_shared_across_contexts_and_attention_is_not():
    """The template's projections are the same objects at every context
    and for a slot without logits; a window's attention is its own."""
    compiler = _step_compiler("test-small", "no-fusion", "w8", 1)
    short, long = compiler.lower(37), compiler.lower(60)
    body = compiler.lower(60, need_logits=False)
    graph = GraphBuilder(compiler.model_config).build_decode_step(37)
    kinds = {op.name: op.kind for op in graph.topological_order()}
    projections = [name for name, kind in kinds.items() if kind is OpKind.MATMUL]
    attention = [name for name, kind in kinds.items()
                 if kind in (OpKind.ATTN_SCORE, OpKind.ATTN_CONTEXT)]
    assert projections and attention
    assert len(body.ops) == len(long.ops) - 2   # no final norm, no classifier
    assert all(c is b for b, c in zip(long.ops, body.ops))
    assert "classifier" in projections
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


def _without_memo(config: AcceleratorConfig, plan: TilingPlan, graph: Graph) -> Program:
    """``graph`` lowered with no memo: each operator by a fresh compiler."""
    return Program([ProgramCompiler(config, plan=plan)._lower_op(graph, op)
                    for op in graph.topological_order()])


def _per_context_build(compiler: StepCompiler, context: int, logits: bool,
                       plan: TilingPlan) -> Program:
    """The oracle: the full step graph of ``context``, fused when the
    design fuses, without the operators after the hidden state when the
    slot wants no logits, lowered with no memo."""
    graph = GraphBuilder(compiler.model_config, shard=compiler.shard,
                         quant=compiler.config.quant,
                         ).build_decode_step(context)
    if compiler.config.operator_fusion:
        graph = fuse_graph(graph)
    if not logits:
        graph = body_graph(graph, compiler.model_config)
    return _without_memo(compiler.config, plan, graph)


def _assert_same(program: Program, reference: Program) -> None:
    assert program.ops == reference.ops
    assert program.labels() == reference.labels()


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


# ----------------------------------------------------------------------
# One layer's window, stamped into every layer
# ----------------------------------------------------------------------
_WINDOW_KINDS = {OpKind.KV_APPEND, OpKind.ATTN_SCORE, OpKind.SOFTMAX, OpKind.ATTN_CONTEXT}


@pytest.mark.parametrize("precision", ["w8", "int8-kv8"])
@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("variant", sorted(PAPER_VARIANTS))
@pytest.mark.parametrize("model", sorted(LOWERING_MODELS))
def test_every_layer_runs_layer_0s_window(model, variant, tp, precision):
    """A context lowers layer 0's window alone: at every context each
    layer's window operator holds layer 0's packet body (``is``), under
    its own name, and the program equals the per-context build, packets
    and labels, with logits and without."""
    config = LOWERING_MODELS[model]
    shard = ShardSpec.from_config(config, tp) if tp > 1 else None
    design = AcceleratorConfig.variant(variant).replace(quant=_PRECISIONS[precision])
    compiler = StepCompiler(config, design, u280(), shard=shard)
    last = config.max_seq_len - 1
    for context in (last // 2, 0, 1, last):
        graph = GraphBuilder(config, shard=shard, quant=design.quant).build_decode_step(context)
        if design.operator_fusion:
            graph = fuse_graph(graph)
        window = [op.name for op in graph
                  if _WINDOW_KINDS.intersection(op.member_kinds())]
        assert len(window) == config.n_layers * len(
            [name for name in window if name.replace("fused[", "").startswith("L0.")])
        for logits in (True, False):
            program = compiler.lower(context, logits)
            _assert_same(program, _per_context_build(compiler, context, logits, DEFAULT_PLAN))
            ops = {op.op_name: op for op in program.ops}
            for name in window:
                assert ops[name].packets is ops[re.sub(r"L\d+\.", "L0.", name)].packets


def _unfuse_layer_1_attention(graph: Graph, unfused: Graph) -> Graph:
    """``graph`` (fused) with layer 1's attention core as ``unfused``'s
    three operators: one layer's window operators differ in number."""
    out = Graph(name=graph.name, tensors={**unfused.tensors, **graph.tensors})
    for op in graph:
        if op.kind is OpKind.FUSED and op.name.startswith("fused[L1.attn_score"):
            for member in op.fused_ops:
                out.add_operator(unfused.operators[member.name])
        else:
            out.add_operator(op)
    return out


def _widen_layer_1_scores(graph: Graph) -> Graph:
    """``graph`` with layer 1's score product over one more position than
    the context holds: its kinds and members are layer 0's, its packets
    are not."""
    out = Graph(name=graph.name, tensors=dict(graph.tensors))
    for op in graph:
        if op.name == "L1.attn_score":
            op = dataclasses.replace(
                op, flops=op.flops + 2 * op.flops // op.attributes["attn_len"],
                attributes={**op.attributes, "attn_len": op.attributes["attn_len"] + 1})
        out.add_operator(op)
    return out


def test_a_model_whose_layers_differ_is_refused():
    """The template refuses to stamp layer 0's window into a layer whose
    window operators differ in number, or in packets."""
    config = preset("test-micro")
    unfused = GraphBuilder(config).build_decode_step(5)
    fused = fuse_graph(unfused)
    compiler = ProgramCompiler(AcceleratorConfig.variant("full"))
    hidden = hidden_state(config)
    _Template.lower(fused, compiler, hidden)   # alike layers pass
    with pytest.raises(ValueError, match="layer 1 .* has 4 window operators, layer 0 has 2"):
        _Template.lower(_unfuse_layer_1_attention(fused, unfused), compiler, hidden)
    with pytest.raises(ValueError, match="'L1.attn_score' .* not layer 0's 'L0.attn_score'"):
        _Template.lower(_widen_layer_1_scores(unfused), compiler, hidden)


# ----------------------------------------------------------------------
# One lowering per operator shape
# ----------------------------------------------------------------------
#: The models of the shape memo's grid: the lowering models (the
#: test-small / test-small-mha pair among them, whose attention differs
#: only in the cache views it reads) and stories15M.
_SHAPE_MODELS = {**LOWERING_MODELS, "stories15M": preset("stories15M")}


@functools.lru_cache(maxsize=None)
def _shared_compiler(variant: str, plan: TilingPlan) -> ProgramCompiler:
    """One long-lived compiler per design point and plan, shared by every
    model, precision and shard view, as the memo's key must tell them
    apart."""
    return ProgramCompiler(AcceleratorConfig.variant(variant), plan=plan)


def _graph(model: str, precision: str, tp: int, fused: bool, context: int,
           logits: bool) -> Graph:
    config = _SHAPE_MODELS[model]
    shard = ShardSpec.from_config(config, tp) if tp > 1 else None
    graph = GraphBuilder(config, shard=shard, quant=_PRECISIONS[precision]
                         ).build_decode_step(context)
    if fused:
        graph = fuse_graph(graph)
    return graph if logits else body_graph(graph, config)


def _assert_shared(program: Program, graph: Graph) -> None:
    """Layer k's projections are layer 0's packet bodies, and the
    classifier holds at most three distinct packets."""
    ops = {op.op_name: op for op in program.ops}
    kinds = {op.name: op.kind for op in graph.topological_order()}
    for name, kind in kinds.items():
        if kind is OpKind.MATMUL and name.startswith("L") and not name.startswith("L0."):
            assert ops[name].packets is ops["L0." + name.split(".", 1)[1]].packets
    if "classifier" in ops:
        assert len({id(packet) for packet in ops["classifier"].packets}) <= 3


@st.composite
def _shape_points(draw):
    """A paper variant × one of its autotuner plans, then 1–4 graphs
    lowered through that point's long-lived compiler: a model × a
    precision × TP 1 or 2 × a context × logits on or off."""
    variant = draw(st.sampled_from(sorted(PAPER_VARIANTS)))
    design = AcceleratorConfig.variant(variant)
    slots = []
    for _ in range(draw(st.integers(1, 4))):
        model = draw(st.sampled_from(sorted(_SHAPE_MODELS)))
        config = _SHAPE_MODELS[model]
        last = config.max_seq_len - 1
        context = draw(st.integers(0, min(last, 40)) | st.just(last))
        slots.append((model, draw(st.sampled_from(sorted(_PRECISIONS))),
                      draw(st.sampled_from([1, 2])), context, draw(st.booleans())))
    plans = {plan for model, *_ in slots
             for plan in candidate_plans(design, _SHAPE_MODELS[model])}
    plan = draw(st.sampled_from(sorted(plans, key=lambda p: p.matmul_fold)))
    return variant, plan, slots


def test_a_long_lived_compiler_lowers_as_each_operator_afresh():
    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(_shape_points())
    def check(point):
        variant, plan, slots = point
        compiler = _shared_compiler(variant, plan)
        for model, precision, tp, context, logits in slots:
            graph = _graph(model, precision, tp, compiler.config.operator_fusion,
                           context, logits)
            program = compiler.compile(graph)
            _assert_same(program, _without_memo(compiler.config, plan, graph))
            _assert_shared(program, graph)

    check()


@pytest.mark.parametrize("variant", sorted(PAPER_VARIANTS))
def test_gqa_and_mha_attention_are_lowered_apart(variant):
    """test-small and test-small-mha differ only in the cache views their
    attention reads: one compiler lowering both, at every context, keeps
    them apart."""
    compiler = ProgramCompiler(AcceleratorConfig.variant(variant))
    fused = compiler.config.operator_fusion
    for context in range(preset("test-small").max_seq_len):
        for model in ("test-small", "test-small-mha"):
            graph = _graph(model, "w8", 1, fused, context, True)
            _assert_same(compiler.compile(graph),
                         _without_memo(compiler.config, DEFAULT_PLAN, graph))
