"""A step is lowered once per tiling plan, and its context only once per
window; a slot without logits runs the same program's body.

``StepCompiler.lower`` builds, fuses and lowers a whole step once per
plan and, per context, only the window operators (KV append and
attention) it splices in.  A slot without logits takes the operators up
to the one writing ``hidden_state``.  Its oracle is the per-context
build: the full step graph, fused when the design fuses, cut after the
hidden state for a slot without logits, lowered by a fresh
``ProgramCompiler``.  Every packet must be equal, whichever context the
long-lived compiler built its template from.
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

from .strategies import body_graph


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


def _per_context_build(compiler: StepCompiler, context: int, logits: bool,
                       plan: TilingPlan) -> Program:
    """The oracle: the full step graph of ``context``, fused when the
    design fuses, without the operators after the hidden state when the
    slot wants no logits, lowered by a fresh compiler."""
    graph = GraphBuilder(compiler.model_config, shard=compiler.shard,
                         quant=compiler.config.quant,
                         ).build_decode_step(context)
    if compiler.config.operator_fusion:
        graph = fuse_graph(graph)
    if not logits:
        graph = body_graph(graph, compiler.model_config)
    return ProgramCompiler(compiler.config, plan=plan).compile(graph)


def _assert_same(program: Program, reference: Program) -> None:
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
