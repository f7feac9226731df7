"""The step compiler: ``build → fuse → tile → schedule`` over three memos.

:class:`StepCompiler` lowers and prices decode steps for one (possibly
sharded) timing view of a model.  Work is kept at the unit that repeats,
and a context is paid for only where it changes the step:

* a *template* per plan — the first context asked for is **built** as
  a whole step graph (when this view is a tensor shard the builder
  already emits the per-shard slice of every operator), **fused** when
  ``config.operator_fusion`` is on, and **tiled** under the
  :class:`~repro.compile.tiling.TilingPlan` by
  :meth:`~repro.accel.compiler.ProgramCompiler.compile`.  Only the
  window operators — each layer's KV append and attention, and a fused
  region holding one — depend on the context; they mark the template's
  slots.  Nor do they depend on their layer: every layer's window
  lowers to layer 0's packets (the template refuses a graph whose
  layers differ), so each slot records the layer-0 operator at its
  place.  The template also records its *body*: the operators up to
  the one writing :func:`~repro.graph.builder.hidden_state`;
* :meth:`StepCompiler.lower` memoises the program of one
  ``(context_len, plan)``: it builds and fuses only layer 0's window
  operators at that context, tiles them, and stamps their packets into
  every layer's slots under the slots' own names.  The program equals
  lowering the whole step graph built at that context.  A slot without
  logits runs the program's body, the same operator programs cut
  before the final norm and classifier;
* :meth:`StepCompiler.compile_step` memoises a whole step in the LRU
  :class:`~repro.compile.cache.CompileCache`, keyed by the bucketed
  composition: each slot's program, merged into the batched
  weight-stationary step program honouring speculative verify runs —
  **schedule**.

The compiler owns its cache, so a key needs nothing beyond the
composition: everything else that shapes a program (model, shard,
quantisation, toggles) is fixed for the compiler's lifetime.  On a
cache miss with ``config.autotune_tiling`` enabled the step is lowered
under every candidate plan, each is scored with the cycle-accurate
executor, and the strictly lowest cycle count is what the cache stores.

Timing results are attached to the cached step lazily: compiling a step
does not pay for simulation until someone asks for cycles, and the
simulated :class:`~repro.accel.pipeline.StepResult` is then cached with
the program itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..accel.batching import block_padded_context, merge_batch_programs
from ..accel.config import AcceleratorConfig
from ..accel.instructions import OpProgram, Program
from ..accel.pipeline import PipelineExecutor, StepResult
from ..fpga.u280 import FpgaPlatform
from ..graph.builder import GraphBuilder, hidden_state
from ..graph.fusion import fuse_graph
from ..graph.graph import Graph
from ..graph.ops import OpKind, TensorSpec
from ..graph.sharding import ShardSpec
from ..llama.config import LlamaConfig
from .cache import CompileCache
from .tiling import DEFAULT_PLAN, TilingPlan, candidate_plans

if TYPE_CHECKING:
    from ..accel.compiler import ProgramCompiler

__all__ = ["CompileWork", "CompiledStep", "StepCompiler"]

#: The compilation phases whose host seconds are accounted, in order.
PHASE_ORDER = ("build", "fuse", "tile", "schedule")


@dataclass(frozen=True)
class CompileWork:
    """Compilation work done: a compiler's cumulative total or, as the
    difference of two, what happened in between cost.  A backend
    brackets each step's one :meth:`StepCompiler.compile_step` call with
    it, so engines sharing a compiler are each charged only what they
    triggered.  Fields are named as in the serving totals that sum them
    (:class:`repro.serve.metrics.StepTotals`).
    """

    compile_cache_misses: int = 0
    compile_cache_evictions: int = 0
    autotune_searches: int = 0
    autotune_candidates: int = 0
    autotune_wins: int = 0
    #: Host wall-clock per compilation phase (real seconds, not
    #: simulated ones).
    compile_phase_seconds: Dict[str, float] = field(default_factory=dict)

    def __sub__(self, before: "CompileWork") -> "CompileWork":
        return CompileWork(
            self.compile_cache_misses - before.compile_cache_misses,
            self.compile_cache_evictions - before.compile_cache_evictions,
            self.autotune_searches - before.autotune_searches,
            self.autotune_candidates - before.autotune_candidates,
            self.autotune_wins - before.autotune_wins,
            {name: seconds - before.compile_phase_seconds[name]
             for name, seconds in self.compile_phase_seconds.items()},
        )


@dataclass
class CompiledStep:
    """One cached compilation product: a batched-step program.

    ``result`` is filled lazily on the first simulation request and then
    rides along in the cache, so a steady-state step pays neither
    compilation nor simulation.
    """

    plan: TilingPlan
    program: Program
    result: Optional[StepResult] = None


#: The operator kinds whose shapes follow a step's KV window.
_WINDOW_KINDS = frozenset({OpKind.KV_APPEND, OpKind.ATTN_SCORE,
                           OpKind.SOFTMAX, OpKind.ATTN_CONTEXT})


@dataclass(frozen=True)
class _Template:
    """One decode step lowered under one tiling plan, with a slot at
    every operator that follows the KV window.

    A window operator's program depends on its context; every other
    operator's does not, and neither does the topological order, which
    only the graph's structure decides.  Nor do a window operator's
    packets depend on its layer: every layer's window lowers to layer
    0's packets, and only the names its packets are labelled by differ,
    which the context does not change.  So the programs of any context
    are these, with the packets of that context's layer-0 window stamped
    into every layer's slots, each slot keeping its own name and naming.
    """

    tiler: ProgramCompiler
    ops: Tuple[OpProgram, ...]
    #: ``(index into ops, the layer-0 window operator at its place)`` of
    #: every window operator, layer 0's own among them.
    slots: Tuple[Tuple[int, str], ...]
    #: Specs of the tensors layer 0's window operators read from the rest.
    boundary: Dict[str, TensorSpec]
    #: How many of ``ops`` a slot without logits runs: up to and
    #: including the operator that writes the hidden state.
    body: int

    @classmethod
    def lower(cls, graph: Graph, tiler: ProgramCompiler, hidden: str) -> _Template:
        """Lower ``graph`` and mark its window operators' slots.  Raises
        ``ValueError`` unless every layer's window operators are layer
        0's in number, kinds, members and packets."""
        order = graph.topological_order()
        ops = tuple(tiler.compile(graph).ops)
        windows: Dict[object, List[int]] = {}
        for index, op in enumerate(order):
            if _WINDOW_KINDS.intersection(op.member_kinds()):
                windows.setdefault(op.attributes.get("layer"), []).append(index)
        stamp = windows.get(0)
        if stamp is None:
            raise ValueError(f"graph {graph.name!r} has no layer-0 window operators")
        slots = []
        for layer, indices in windows.items():
            if len(indices) != len(stamp):
                raise ValueError(f"layer {layer} of {graph.name!r} has {len(indices)} "
                                 f"window operators, layer 0 has {len(stamp)}")
            for index, place in zip(indices, stamp):
                op, like = order[index], order[place]
                if (op.kind, op.member_kinds()) != (like.kind, like.member_kinds()) \
                        or ops[index].packets is not ops[place].packets:
                    raise ValueError(f"window operator {op.name!r} of {graph.name!r} is "
                                     f"not layer 0's {like.name!r} in kinds, members or "
                                     f"packets")
                slots.append((index, like.name))
        produced = {t for place in stamp for t in order[place].outputs}
        boundary = {t: graph.tensors[t] for place in stamp for t in order[place].inputs
                    if t not in produced}
        body = next(index for index, op in enumerate(order)
                    if hidden in op.outputs) + 1
        return cls(tiler, ops, tuple(slots), boundary, body)

    def splice(self, window: Graph) -> Program:
        """The program of the step whose layer-0 window operators are
        ``window``'s."""
        lowered = {op.op_name: op.packets for op in self.tiler.compile(window).ops}
        ops = list(self.ops)
        for index, name in self.slots:
            op = ops[index]
            ops[index] = OpProgram(op.op_name, op.unit, lowered[name], op.naming)
        return Program(ops)


class StepCompiler:
    """Compiler and cycle pricer for one model (or shard) timing view."""

    def __init__(
        self,
        model_config: LlamaConfig,
        config: AcceleratorConfig,
        platform: FpgaPlatform,
        shard: Optional[ShardSpec] = None,
    ) -> None:
        self.model_config = model_config
        self.config = config
        self.platform = platform
        self.shard = shard
        self._builder = GraphBuilder(model_config, shard=shard,
                                     quant=config.quant)
        self._executor = PipelineExecutor(config, platform)
        self._templates: Dict[TilingPlan, _Template] = {}
        self._programs: Dict[Tuple[int, TilingPlan], Program] = {}
        self.cache = CompileCache()
        #: Host seconds spent in each phase; a memo hit adds nothing.
        self.phase_seconds: Dict[str, float] = dict.fromkeys(PHASE_ORDER, 0.0)
        # Autotuning: the plans a miss is scored under (fixed tiling
        # first) and what the searches found.
        self.plans = candidate_plans(config, model_config)
        self.searches = 0
        self.candidates_scored = 0
        self.wins = 0
        self.cycles_saved = 0
        self.search_seconds = 0.0

    def _timed(self, phase: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.phase_seconds[phase] += time.perf_counter() - start
        return out

    # ------------------------------------------------------------------
    # Per-slot lowering
    # ------------------------------------------------------------------
    def lower(
        self,
        context_len: int,
        need_logits: bool = True,
        plan: TilingPlan = DEFAULT_PLAN,
    ) -> Program:
        """The tile program of one slot shape under ``plan``: the
        template's programs with this context's layer-0 window stamped
        into every layer, or, for a slot without logits, the body of that
        program."""
        key = (context_len, plan)
        program = self._programs.get(key)
        if program is None:
            template = self._template(context_len, plan)
            window = self._timed("build", self._builder.build_window,
                                 context_len, template.boundary)
            if self.config.operator_fusion:
                window = self._timed("fuse", fuse_graph, window)
            program = self._timed("tile", template.splice, window)
            self._programs[key] = program
        if need_logits:
            return program
        return Program(program.ops[:self._templates[plan].body])

    def _template(self, context_len: int, plan: TilingPlan) -> _Template:
        template = self._templates.get(plan)
        if template is None:
            graph = self._timed("build", self._builder.build_decode_step,
                                context_len)
            if self.config.operator_fusion:
                graph = self._timed("fuse", fuse_graph, graph)
            # Imported here: accel.compiler imports repro.compile.tiling,
            # so a module-level import would be circular.
            from ..accel.compiler import ProgramCompiler
            template = self._timed("tile", _Template.lower, graph,
                                   ProgramCompiler(self.config, plan=plan),
                                   hidden_state(self.model_config))
            self._templates[plan] = template
        return template

    # ------------------------------------------------------------------
    # Whole steps
    # ------------------------------------------------------------------
    def compile_step(
        self,
        context_lens: Sequence[int],
        need_logits: Optional[Sequence[bool]] = None,
        kv_block_tokens: Optional[int] = None,
        run_ids: Optional[Sequence[int]] = None,
    ) -> CompiledStep:
        """Compiled (and cached) program for one batched decode step.

        ``context_lens`` lists the context length of every token position
        executed in the step (one entry per batch slot), each in
        ``[0, max_seq_len)``; ``need_logits`` marks the slots that run the
        classifier (all by default) — prompt positions whose logits are
        never sampled run the step's body alone.  ``run_ids`` groups
        consecutive slots into speculative verify runs
        (:func:`~repro.accel.batching.batch_run_ids`): a run's followers
        share the KV window its first position streamed, so the same
        composition prices differently with runs, and the run ids join
        the cache key.

        Contexts are first padded to whole KV blocks (paged mode), then
        rounded up to ``config.ctx_bucket``; the resulting composition is
        the cache key.  On a miss the step is lowered under the fixed
        tiling, or, with autotuning enabled, under every candidate plan
        with the cycle-accurate executor picking the winner.
        """
        if not context_lens:
            raise ValueError("compile_step needs at least one slot")
        if need_logits is None:
            need_logits = [True] * len(context_lens)
        if len(need_logits) != len(context_lens):
            raise ValueError("need_logits must match context_lens in length")
        max_seq_len = self.model_config.max_seq_len
        outside = [ctx for ctx in context_lens if not 0 <= ctx < max_seq_len]
        if outside:
            raise ValueError(f"contexts {outside} are outside the model's "
                             f"window [0, {max_seq_len})")
        if kv_block_tokens is not None:
            context_lens = [
                block_padded_context(ctx, kv_block_tokens, max_seq_len)
                for ctx in context_lens
            ]
        contexts = tuple(
            block_padded_context(ctx, self.config.ctx_bucket, max_seq_len)
            for ctx in context_lens
        )
        logits = tuple(bool(flag) for flag in need_logits)
        runs = tuple(run_ids) if run_ids is not None else None
        return self.cache.get_or_build(
            (contexts, logits, runs),
            lambda: self._compile_miss(contexts, logits, runs),
        )

    def _compile_miss(
        self,
        contexts: Tuple[int, ...],
        need_logits: Tuple[bool, ...],
        run_ids: Optional[Tuple[int, ...]],
    ) -> CompiledStep:
        if not self.config.autotune_tiling:
            return CompiledStep(DEFAULT_PLAN, self._lower_step(
                contexts, need_logits, run_ids, DEFAULT_PLAN))
        start = time.perf_counter()
        scored = []
        for plan in self.plans:
            program = self._lower_step(contexts, need_logits, run_ids, plan)
            scored.append(CompiledStep(plan, program,
                                       self._executor.run(program)))
        # min keeps the first of equal counts: ties go to the earlier plan.
        best = min(scored, key=lambda step: step.result.cycles)
        saved = scored[0].result.cycles - best.result.cycles
        self.searches += 1
        self.candidates_scored += len(scored)
        self.wins += saved > 0
        self.cycles_saved += saved
        self.search_seconds += time.perf_counter() - start
        return best

    def _lower_step(
        self,
        contexts: Sequence[int],
        need_logits: Sequence[bool],
        run_ids: Optional[Sequence[int]],
        plan: TilingPlan,
    ) -> Program:
        programs = [self.lower(ctx, logits, plan)
                    for ctx, logits in zip(contexts, need_logits)]
        if len(programs) == 1:
            return programs[0]
        return self._timed("schedule", merge_batch_programs,
                           programs, self.config.mpe, run_ids=run_ids)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, step: CompiledStep) -> StepResult:
        """Cycle-accurate result of a compiled step, attached lazily."""
        if step.result is None:
            step.result = self._executor.run(step.program)
        return step.result

    def simulate_step(
        self,
        context_lens: Sequence[int],
        need_logits: Optional[Sequence[bool]] = None,
        kv_block_tokens: Optional[int] = None,
        run_ids: Optional[Sequence[int]] = None,
    ) -> StepResult:
        """Compile (or fetch) and simulate one batched decode step."""
        return self.simulate(self.compile_step(
            context_lens, need_logits, kv_block_tokens, run_ids
        ))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def work(self) -> CompileWork:
        """Cumulative compilation work; subtract two to price a lookup."""
        return CompileWork(
            self.cache.misses,
            self.cache.evictions,
            self.searches,
            self.candidates_scored,
            self.wins,
            dict(self.phase_seconds),
        )

    def stats(self) -> Dict[str, object]:
        """Phase timings, cache counters and autotune counters."""
        out: Dict[str, object] = {
            "phase_seconds": dict(self.phase_seconds),
            "compile_seconds": sum(self.phase_seconds.values()),
            "cache": self.cache.stats(),
        }
        if self.config.autotune_tiling:
            out["autotune"] = {
                "search_space": len(self.plans),
                "searches": self.searches,
                "candidates_scored": self.candidates_scored,
                "wins": self.wins,
                "win_ratio": self.wins / self.searches if self.searches else 0.0,
                "cycles_saved": self.cycles_saved,
                "seconds": self.search_seconds,
            }
        return out

    #: Alias the benchmark harness binds.
    compile_stats = stats
