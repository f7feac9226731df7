"""The step compiler: ``build → fuse → tile → schedule`` over three memos.

:class:`StepCompiler` lowers and prices decode steps for one (possibly
sharded) timing view of a model.  Work is kept at the unit that repeats,
and a context is paid for only where it changes the step:

* a *template* per ``(include_logits, plan)`` — the first context asked
  for is **built** as a whole step graph (when this view is a tensor
  shard the builder already emits the per-shard slice of every operator),
  **fused** when ``config.operator_fusion`` is on, ordered, and every
  operator **tiled** under the :class:`~repro.compile.tiling.TilingPlan`.
  Only the window operators — each layer's KV append and attention, and
  a fused region holding one — depend on the context; they mark the
  template's slots;
* :meth:`StepCompiler.lower` memoises the program of one
  ``(context_len, include_logits, plan)``: it builds and fuses only that
  context's window operators, tiles them, and splices them into the
  template's slots.  The program equals lowering the whole step graph
  built at that context;
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
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..accel.batching import block_padded_context, merge_batch_programs
from ..accel.config import AcceleratorConfig
from ..accel.instructions import OpProgram, Program
from ..accel.pipeline import PipelineExecutor, StepResult
from ..fpga.u280 import FpgaPlatform
from ..graph.builder import GraphBuilder
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
    contexts: Tuple[int, ...]
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
    only the graph's structure decides.  So the programs of any context
    are these, with that context's window lowered into the slots.
    """

    tiler: ProgramCompiler
    ops: Tuple[OpProgram, ...]
    #: ``(index into ops, operator name)`` of every window operator.
    slots: Tuple[Tuple[int, str], ...]
    #: Specs of the tensors the window operators read from the rest.
    boundary: Dict[str, TensorSpec]
    n_graph_ops: int

    @classmethod
    def lower(cls, graph: Graph, tiler: ProgramCompiler) -> _Template:
        order = graph.topological_order()
        slots = [(index, op) for index, op in enumerate(order)
                 if _WINDOW_KINDS.intersection(op.member_kinds())]
        produced = {t for _, op in slots for t in op.outputs}
        boundary = {t: graph.tensors[t] for _, op in slots for t in op.inputs
                    if t not in produced}
        return cls(tiler, tuple(tiler.compile_op(graph, op) for op in order),
                   tuple((index, op.name) for index, op in slots),
                   boundary, len(graph))

    def splice(self, window: Graph) -> Program:
        """The program of the step whose window operators are ``window``'s."""
        ops = list(self.ops)
        for index, name in self.slots:
            ops[index] = self.tiler.compile_op(window, window.operators[name])
        return self.tiler.program(ops, window.name, self.n_graph_ops)


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
        # One ProgramCompiler per tiling plan (plans are few and frozen).
        self._tilers: Dict[TilingPlan, ProgramCompiler] = {}
        self._templates: Dict[Tuple[bool, TilingPlan], _Template] = {}
        self._programs: Dict[Tuple[int, bool, TilingPlan], Program] = {}
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
        include_logits: bool = True,
        plan: TilingPlan = DEFAULT_PLAN,
    ) -> Program:
        """The tile program of one slot shape under ``plan``: the
        template's programs with this context's window spliced in."""
        key = (context_len, include_logits, plan)
        program = self._programs.get(key)
        if program is None:
            template = self._template(context_len, include_logits, plan)
            window = self._timed("build", self._builder.build_window,
                                 context_len, template.boundary,
                                 include_logits=include_logits)
            if self.config.operator_fusion:
                window = self._timed("fuse", fuse_graph, window).graph
            program = self._timed("tile", template.splice, window)
            self._programs[key] = program
        return program

    def _template(self, context_len: int, include_logits: bool,
                  plan: TilingPlan) -> _Template:
        key = (include_logits, plan)
        template = self._templates.get(key)
        if template is None:
            graph = self._timed("build", self._builder.build_decode_step,
                                context_len, include_logits=include_logits)
            if self.config.operator_fusion:
                graph = self._timed("fuse", fuse_graph, graph).graph
            tiler = self._tilers.get(plan)
            if tiler is None:
                # Imported here: accel.compiler imports repro.compile.tiling,
                # so a module-level import would be circular.
                from ..accel.compiler import ProgramCompiler
                tiler = ProgramCompiler(self.config, plan=plan)
                self._tilers[plan] = tiler
            template = self._timed("tile", _Template.lower, graph, tiler)
            self._templates[key] = template
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
        never sampled use the reduced graph.  ``run_ids`` groups
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
            return CompiledStep(DEFAULT_PLAN, contexts, self._lower_step(
                contexts, need_logits, run_ids, DEFAULT_PLAN))
        start = time.perf_counter()
        scored = []
        for plan in self.plans:
            program = self._lower_step(contexts, need_logits, run_ids, plan)
            scored.append(CompiledStep(plan, contexts, program,
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
