"""``hypothesis`` strategies for valid accelerator design points,
synthetic programs, batched functional steps and lowered decode-step
graphs — the generators shared by the executor's, the compiler's and the
batch merge's differential tests and (ROADMAP item 3) the cross-layer
invariant oracle.

The ranges are chosen to provoke *same-cycle ties*, where the order of a
read and a posted write on the HBM channel heap is decided by the order
of events inside one cycle: few channels, stripes wider and narrower
than the channel count, pools of one segment, flushes of zero cycles,
computes of zero and one cycle, and loads and stores that are often
empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from hypothesis import strategies as st

from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.accel.instructions import OpProgram, Program, TilePacket
from repro.compile.tiling import TilingPlan, candidate_plans
from repro.fpga.u280 import FpgaPlatform, u280
from repro.graph.builder import GraphBuilder
from repro.graph.fusion import fuse_graph
from repro.graph.graph import Graph
from repro.graph.ops import ComputeUnit
from repro.graph.sharding import ShardSpec
from repro.llama.config import LlamaConfig, preset
from repro.llama.quantization import QuantSpec
from repro.quant.config import QuantConfig

__all__ = ["platforms", "accelerator_configs", "programs", "executor_cases",
           "periodic_programs", "periodic_cases",
           "STEP_MODELS", "StepCase", "steps", "LOWERING_MODELS",
           "GraphView", "graph_views", "lowering_targets"]


def platforms() -> st.SearchStrategy[FpgaPlatform]:
    """The U280 with 1, 2, 5 or all 32 HBM pseudo-channels."""
    return st.sampled_from([1, 2, 5, 32]).map(
        lambda n_channels: u280(n_hbm_channels=n_channels))


def accelerator_configs(trace_enabled: bool = True) -> st.SearchStrategy[AcceleratorConfig]:
    """Both executor disciplines × both pool policies × pool and stripe sizes."""
    return st.builds(
        AcceleratorConfig,
        pipeline=st.booleans(),
        memory_reuse=st.booleans(),
        hbm_stripe=st.one_of(st.sampled_from([1, 2, 16]), st.integers(1, 64)),
        buffers=st.builds(
            BufferConfig,
            n_segments=st.integers(1, 8),
            reuse_flush_cycles=st.sampled_from([0, 1, 24, 160]),
        ),
        trace_enabled=st.just(trace_enabled),
    )


_BYTES = st.one_of(st.just(0), st.sampled_from([1, 5, 64, 4096]),
                   st.integers(1, 1 << 16))
_CYCLES = st.one_of(st.sampled_from([0, 1]), st.integers(2, 40),
                    st.integers(41, 3000))
_TILES = st.tuples(_BYTES, _CYCLES, st.one_of(st.just(0), _BYTES),
                   st.sampled_from([ComputeUnit.MPE, ComputeUnit.SFU]))


@st.composite
def programs(draw, max_ops: int = 8, max_packets: int = 12) -> Program:
    """1–``max_ops`` operators of 1–``max_packets`` packets each.

    No operator is empty: the kernel-based executor charged an empty
    operator's dispatch in one discipline and not in the other (see
    :mod:`repro.accel.pipeline`), so it is no oracle for them.
    """
    ops = []
    for o, tiles in enumerate(draw(st.lists(
            st.lists(_TILES, min_size=1, max_size=max_packets),
            min_size=1, max_size=max_ops))):
        ops.append(OpProgram(f"op{o}", ComputeUnit.MPE, [
            TilePacket(f"op{o}", unit, load, cycles, store,
                       macs=cycles, sfu_flops=load % 7, onchip_bytes=store % 5,
                       label=f"op{o}.{j}")
            for j, (load, cycles, store, unit) in enumerate(tiles)
        ]))
    return Program("generated", ops)


def executor_cases() -> st.SearchStrategy[Tuple[AcceleratorConfig, FpgaPlatform, Program]]:
    """One ``PipelineExecutor(config, platform).run(program)`` call."""
    return st.tuples(accelerator_configs(), platforms(), programs())


# ----------------------------------------------------------------------
# Programs that repeat themselves
# ----------------------------------------------------------------------
_PERIODIC_TILES = st.tuples(
    st.sampled_from([0, 3, 64, 4096, 40000]),     # load bytes
    st.sampled_from([0, 1, 7, 40, 300]),          # compute cycles
    st.sampled_from([0, 1, 5, 64, 4096]),         # store bytes: 1 and 5 are
    st.sampled_from([ComputeUnit.MPE, ComputeUnit.SFU]))  # under most stripes


def _operator(name: str, tiles) -> OpProgram:
    return OpProgram(name, ComputeUnit.MPE, [
        TilePacket(name, unit, load, cycles, store, macs=cycles,
                   sfu_flops=load % 7, onchip_bytes=store % 5, label=f"{name}.{j}")
        for j, (load, cycles, store, unit) in enumerate(tiles)])


@st.composite
def periodic_programs(draw) -> Program:
    """What the cycle simulator's periodic fast-forward is for: a long
    run of one packet (128–256 of it, as a classifier's tiles), then a
    block of 1–3 operators repeated 2–8 times (as decoder layers), then
    up to two operators more.

    The run's packet computes for 7 cycles or more and loads at most
    4 KiB, as a classifier tile does.  (Some 300 consecutive packets that
    take no time exhaust the recursion limit of a key comparison; and a
    run that only waits on memory — latency or 40 KB loads — can drift
    for hundreds of packets before its state recurs.)  Any other packet
    may compute for zero cycles, and stores of 1 and 5 bytes leave most
    stripes empty.
    """
    tile = draw(_PERIODIC_TILES.filter(lambda t: t[1] >= 7 and t[0] <= 4096))
    ops = [_operator("run", [tile] * draw(st.integers(128, 256)))]
    block = draw(st.lists(st.lists(_PERIODIC_TILES, min_size=1, max_size=4),
                          min_size=1, max_size=3))
    for repeat in range(draw(st.integers(2, 8))):
        ops += [_operator(f"block{repeat}.{o}", tiles) for o, tiles in enumerate(block)]
    ops += [_operator(f"tail{o}", tiles) for o, tiles in enumerate(draw(
        st.lists(st.lists(_PERIODIC_TILES, min_size=1, max_size=4), max_size=2)))]
    return Program("periodic", ops)


def periodic_cases(pipeline: bool, reuse: bool
                   ) -> st.SearchStrategy[Tuple[AcceleratorConfig, FpgaPlatform, Program]]:
    """An untraced run of :func:`periodic_programs` under one discipline
    and pool policy: pools of 1–8 segments, which mostly do not divide
    the repeated block's length, and 1, 2 or 4 HBM channels, so the
    arbitration order of idle channels cycles within the run."""
    configs = st.builds(
        AcceleratorConfig,
        pipeline=st.just(pipeline),
        memory_reuse=st.just(reuse),
        hbm_stripe=st.one_of(st.sampled_from([1, 2, 3, 16]), st.integers(1, 64)),
        buffers=st.builds(BufferConfig, n_segments=st.integers(1, 8),
                          reuse_flush_cycles=st.sampled_from([0, 1, 24, 160])),
    )
    channels = st.sampled_from([1, 2, 4]).map(
        lambda n_channels: u280(n_hbm_channels=n_channels))
    return st.tuples(configs, channels, periodic_programs())


# ----------------------------------------------------------------------
# Batched functional steps
# ----------------------------------------------------------------------
#: The models a generated step runs on: the two test presets (MHA with
#: one-group heads, GQA) and stories15M's real operator shapes — the
#: widths BLAS picks its kernels by — cut to two layers and a small
#: vocabulary.
STEP_MODELS = {
    "test-micro": preset("test-micro"),
    "test-small": preset("test-small"),
    "mha-288": preset("stories15M").replace(
        n_layers=2, vocab_size=96, max_seq_len=48, name="mha-288"),
}


@dataclass(frozen=True)
class StepCase:
    """A recipe for one ``execute_slots`` call and the state it runs on.

    A recipe, not objects: the differential test builds it twice, once
    for the op-major step and once for the slot-major oracle.
    """

    model: str  # key of STEP_MODELS
    fused: bool
    quant: QuantConfig  # the int8 datapath, or float32 weights
    paged: bool
    block_tokens: int
    kv_group: Optional[int]  # group size of the quantised KV, None for fp32
    #: Per cache: the index of the earlier (paged) cache it is forked
    #: from — sharing every block copy-on-write — or None.
    forked_from: Tuple[Optional[int], ...]
    #: Per cache: tokens prefilled before the step (after the fork).
    histories: Tuple[Tuple[int, ...], ...]
    #: The step: (cache index, token, need_logits, speculative); a
    #: cache's slots take consecutive positions from its length on.
    slots: Tuple[Tuple[int, int, bool, bool], ...]

    @property
    def config(self) -> LlamaConfig:
        return STEP_MODELS[self.model]


@st.composite
def steps(draw) -> StepCase:
    """1–16 slots over 1–4 caches: mixed ``need_logits``, chunks of
    consecutive positions interleaved across caches, sometimes a
    speculative verify run, sometimes a cache filled to the last
    position of the context window, paged caches forked off one another
    so a step's first write copies a shared block."""
    model = draw(st.sampled_from(sorted(STEP_MODELS)))
    config = STEP_MODELS[model]
    paged = draw(st.booleans())
    n_slots = draw(st.integers(1, 16))
    n_caches = draw(st.integers(1, min(4, n_slots)))
    # Which cache each slot belongs to: every cache at least once.
    owners = list(range(n_caches)) + draw(st.lists(
        st.integers(0, n_caches - 1),
        min_size=n_slots - n_caches, max_size=n_slots - n_caches))
    counts = [owners.count(index) for index in range(n_caches)]
    tokens = st.integers(0, config.vocab_size - 1)
    forked_from, histories, lengths = [], [], []
    for index, count in enumerate(counts):
        parent = (draw(st.one_of(st.none(), st.integers(0, index - 1)))
                  if paged and index else None)
        inherited = 0 if parent is None else lengths[parent]
        room = config.max_seq_len - count - inherited
        if room < 0:
            parent, inherited, room = None, 0, config.max_seq_len - count
        # One cache in six is filled up to the end of the context window.
        extra = (room if draw(st.integers(0, 5)) == 0
                 else draw(st.integers(0, min(room, 10))))
        forked_from.append(parent)
        # A drawn salt, not a drawn list: a long history is state to
        # attend over, and spends none of the example's entropy budget.
        salt = draw(tokens)
        histories.append(tuple((salt + 7 * i) % config.vocab_size
                               for i in range(extra)))
        lengths.append(inherited + extra)
    order = draw(st.permutations(owners))
    speculative = draw(st.one_of(st.none(), st.integers(0, n_caches - 1)))
    slots = tuple(
        (index, draw(tokens), index == speculative or draw(st.booleans()),
         index == speculative)
        for index in order)
    return StepCase(
        model=model, fused=draw(st.booleans()),
        quant=draw(st.sampled_from([QuantConfig.datapath(), QuantConfig.fp32()])),
        paged=paged,
        block_tokens=draw(st.sampled_from([1, 2, 4, 8])),
        kv_group=draw(st.sampled_from([None, None, 16, 64])),
        forked_from=tuple(forked_from), histories=tuple(histories),
        slots=slots)


# ----------------------------------------------------------------------
# Lowered decode-step graphs
# ----------------------------------------------------------------------
#: The models a lowered graph is built for.  ``test-small-mha`` is
#: test-small with one KV head per query head: its attention operators
#: have test-small's names, FLOPs and attributes, and differ only in the
#: shapes of the cache views they read.
LOWERING_MODELS = {
    "test-micro": preset("test-micro"),
    "test-small": preset("test-small"),
    "test-small-mha": preset("test-small").replace(
        n_kv_heads=4, name="test-small-mha"),
}

#: Graph-side quantisation: the int8 or int4 datapath, float32, or int8 /
#: int4 weights with streamed scales, each with a quantised KV cache.
_QUANTS = {
    "w8": QuantConfig.datapath(8),
    "w4": QuantConfig.datapath(4),
    "fp32": QuantConfig.fp32(),
    "int8-kv8": QuantConfig(weights=QuantSpec(8, 16), kv=QuantSpec(8, 16)),
    "int4-kv8": QuantConfig(weights=QuantSpec(4, 16), kv=QuantSpec(8, 16)),
}


@dataclass(frozen=True)
class GraphView:
    """How a serving engine builds its decode-step graphs: the model,
    operator fusion, the quantisation and the tensor-parallel shard."""

    model: str  # key of LOWERING_MODELS
    fused: bool
    quant: str  # key of _QUANTS
    tp: int

    @property
    def config(self) -> LlamaConfig:
        return LOWERING_MODELS[self.model]

    def graph(self, context: int, logits: bool) -> Graph:
        """A new graph object for one slot shape (never a cached one)."""
        config = self.config
        shard = ShardSpec.from_config(config, self.tp) if self.tp > 1 else None
        graph = GraphBuilder(
            config, shard=shard, quant=_QUANTS[self.quant],
        ).build_decode_step(context, include_logits=logits)
        return fuse_graph(graph).graph if self.fused else graph


def graph_views() -> st.SearchStrategy[GraphView]:
    """Every model × fusion on and off × each quantisation × TP 1 and 2."""
    return st.builds(
        GraphView,
        model=st.sampled_from(sorted(LOWERING_MODELS)),
        fused=st.booleans(),
        quant=st.sampled_from(sorted(_QUANTS)),
        tp=st.sampled_from([1, 2]),
    )


@st.composite
def lowering_targets(draw) -> Tuple[AcceleratorConfig, TilingPlan]:
    """What a :class:`~repro.accel.compiler.ProgramCompiler` is built
    from: a design point (int8 or int4 datapath) and one of the
    autotuner's candidate tiling plans for it."""
    config = draw(accelerator_configs(trace_enabled=False)).replace(
        quant=QuantConfig.datapath(draw(st.sampled_from([8, 4]))))
    plans = {plan for model in LOWERING_MODELS.values()
             for plan in candidate_plans(config, model)}
    plan = draw(st.sampled_from(sorted(plans, key=lambda p: p.matmul_fold)))
    return config, plan
