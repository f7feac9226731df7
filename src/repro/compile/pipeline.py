"""The step compiler: ``build → shard → fuse → tile → schedule``.

:class:`StepCompiler` owns the explicit compilation pipeline for one
(possibly sharded) timing view of a model.  Each stage is a named
:class:`~repro.compile.phase.Phase`:

* **build**    — construct the decode-step graph for one ``(context_len,
  include_logits)`` shape (memoized per shape; when this view is a tensor
  shard the builder already emits the per-shard slice of every operator);
* **shard**    — validate the shard view (enabled only when a
  :class:`~repro.graph.sharding.ShardSpec` is attached);
* **fuse**     — operator fusion (enabled by ``config.operator_fusion``,
  memoized per graph);
* **tile**     — lower a graph to a tile program under one
  :class:`~repro.compile.tiling.TilingPlan` (memoized per graph × plan);
* **schedule** — merge per-slot programs into the batched
  weight-stationary step program, honouring speculative verify runs.

Whole-step products go through the shape-bucketed
:class:`~repro.compile.cache.CompileCache`: the cache key is the compile
signature plus the bucketed step composition, so a steady-state serving
loop compiles once per bucket and replays the cached
:class:`CompiledStep` everywhere else.  On a cache miss with
``config.autotune_tiling`` enabled, the
:class:`~repro.compile.autotune.TileAutotuner` scores every candidate
plan with the cycle-accurate executor and the winner is what the cache
stores.

Timing results are attached to the cached step lazily: compiling a step
does not pay for simulation until someone asks for cycles, and the
simulated :class:`~repro.accel.pipeline.StepResult` is then cached with
the program itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..accel.batching import block_padded_context, merge_batch_programs
from ..accel.config import AcceleratorConfig
from ..accel.instructions import Program
from ..accel.pipeline import PipelineExecutor, StepResult
from ..fpga.u280 import FpgaPlatform
from ..graph.builder import GraphBuilder
from ..graph.fusion import fuse_graph
from ..graph.graph import Graph
from ..graph.sharding import ShardSpec
from ..llama.config import LlamaConfig
from .autotune import TileAutotuner
from .cache import CompileCache, ShapeBucketSpec, compile_signature
from .phase import Phase, PhasePipeline
from .tiling import DEFAULT_PLAN, TilingPlan, candidate_plans

__all__ = ["CompileWork", "CompiledStep", "StepCompiler"]

#: Phase order of the pipeline (stable; used by docs and tests).
PHASE_ORDER = ("build", "shard", "fuse", "tile", "schedule")


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

    key: Tuple
    plan: TilingPlan
    contexts: Tuple[int, ...]
    need_logits: Tuple[bool, ...]
    run_ids: Optional[Tuple[int, ...]]
    program: Program
    result: Optional[StepResult] = None


class StepCompiler:
    """Phase-structured compiler for one model (or shard) timing view."""

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
        self._builder = GraphBuilder(
            model_config,
            weight_dtype_bytes=config.weight_dtype_bytes,
            shard=shard,
            quant=config.quant,
        )
        self._executor = PipelineExecutor(config, platform)
        # One ProgramCompiler per tiling plan (plans are few and frozen).
        self._tilers: Dict[TilingPlan, object] = {}
        self.signature = compile_signature(model_config, config, shard)
        self.buckets = ShapeBucketSpec(config.ctx_bucket)
        self.cache = CompileCache()
        self.autotuner: Optional[TileAutotuner] = None
        if config.autotune_tiling:
            self.autotuner = TileAutotuner(
                candidate_plans(config, model_config))
        self.phases = PhasePipeline([
            Phase("build", self._build_graph, memoize=True),
            Phase("shard", self._validate_shard,
                  enabled=shard is not None,
                  memoize=True, key=lambda graph: graph.name),
            Phase("fuse", self._fuse_graph,
                  enabled=config.operator_fusion,
                  memoize=True, key=lambda graph: graph.name),
            Phase("tile", self._tile_graph,
                  memoize=True, key=lambda graph, plan: (graph.name, plan)),
            Phase("schedule", self._schedule),
        ])

    # ------------------------------------------------------------------
    # Phase bodies
    # ------------------------------------------------------------------
    def _build_graph(self, context_len: int, include_logits: bool) -> Graph:
        return self._builder.build_decode_step(
            context_len, include_logits=include_logits
        )

    def _validate_shard(self, graph: Graph) -> Graph:
        # Sharding is applied at graph construction (the builder emits the
        # per-shard slice of every operator); this phase is the pipeline's
        # checkpoint that the graph really is this view's shard.
        assert self.shard is not None
        tag = f"-tp{self.shard.tp}"
        if tag not in graph.name:
            raise ValueError(
                f"graph {graph.name!r} is not a tp={self.shard.tp} shard view"
            )
        return graph

    def _fuse_graph(self, graph: Graph) -> Graph:
        return fuse_graph(graph).graph

    def _tile_graph(self, graph: Graph, plan: TilingPlan) -> Program:
        return self._tiler_for(plan).compile(graph)

    def _schedule(
        self,
        programs: List[Program],
        run_ids: Optional[Sequence[int]],
    ) -> Program:
        if len(programs) == 1:
            return programs[0]
        return merge_batch_programs(programs, self.config.mpe,
                                    run_ids=run_ids)

    def _tiler_for(self, plan: TilingPlan):
        tiler = self._tilers.get(plan)
        if tiler is None:
            # Imported here: accel.compiler imports repro.compile.tiling,
            # so a module-level import would be circular.
            from ..accel.compiler import ProgramCompiler
            tiler = ProgramCompiler(self.config, plan=plan)
            self._tilers[plan] = tiler
        return tiler

    # ------------------------------------------------------------------
    # Per-slot lowering
    # ------------------------------------------------------------------
    def lower(
        self,
        context_len: int,
        include_logits: bool = True,
        plan: TilingPlan = DEFAULT_PLAN,
    ) -> Program:
        """Run one slot shape through build → shard → fuse → tile."""
        return self.phases["tile"](
            self.graph_for(context_len, include_logits), plan)

    def graph_for(self, context_len: int, include_logits: bool = True) -> Graph:
        """The (fused) decode-step graph of one slot shape."""
        graph = self.phases["build"](context_len, include_logits)
        graph = self.phases["shard"](graph)
        return self.phases["fuse"](graph)

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
        executed in the step (one entry per batch slot); ``need_logits``
        marks the slots that run the classifier (all by default) —
        prompt positions whose logits are never sampled use the reduced
        graph.  ``run_ids`` groups consecutive slots into speculative
        verify runs (:func:`~repro.accel.batching.batch_run_ids`): a
        run's followers share the KV window its first position streamed,
        so the same composition prices differently with runs, and the run
        ids join the cache key.

        Contexts are first padded to whole KV blocks (paged mode), then
        rounded up to the cache's context bucket; the resulting
        composition — together with this view's compile signature — is
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
        if kv_block_tokens is not None:
            context_lens = [
                block_padded_context(ctx, kv_block_tokens, max_seq_len)
                for ctx in context_lens
            ]
        bucketed = self.buckets.bucket_contexts(context_lens, max_seq_len)
        logits_key = tuple(bool(flag) for flag in need_logits)
        run_key = tuple(run_ids) if run_ids is not None else None
        key = (self.signature, bucketed, logits_key, run_key)
        return self.cache.get_or_build(
            key, lambda: self._compile_miss(key, bucketed, logits_key, run_key)
        )

    def _compile_miss(
        self,
        key: Tuple,
        contexts: Tuple[int, ...],
        need_logits: Tuple[bool, ...],
        run_ids: Optional[Tuple[int, ...]],
    ) -> CompiledStep:
        if self.autotuner is None:
            plan, result = DEFAULT_PLAN, None
            program = self._lower_step(contexts, need_logits, run_ids, plan)
        else:
            def evaluate(candidate: TilingPlan):
                program = self._lower_step(contexts, need_logits,
                                           run_ids, candidate)
                result = self._executor.run(program)
                return (program, result), result.cycles

            outcome = self.autotuner.tune(evaluate)
            plan = outcome.plan
            program, result = outcome.payload
        return CompiledStep(
            key=key, plan=plan, contexts=contexts, need_logits=need_logits,
            run_ids=run_ids, program=program, result=result,
        )

    def _lower_step(
        self,
        contexts: Sequence[int],
        need_logits: Sequence[bool],
        run_ids: Optional[Sequence[int]],
        plan: TilingPlan,
    ) -> Program:
        programs = [self.lower(ctx, logits, plan)
                    for ctx, logits in zip(contexts, need_logits)]
        return self.phases["schedule"](programs, run_ids)

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
        tuner = self.autotuner
        return CompileWork(
            self.cache.misses,
            self.cache.evictions,
            tuner.searches if tuner else 0,
            tuner.candidates_scored if tuner else 0,
            tuner.wins if tuner else 0,
            self.phases.seconds_by_phase(),
        )

    def stats(self) -> Dict[str, object]:
        """Phase timings, cache counters and autotune counters."""
        out: Dict[str, object] = {
            "phases": self.phases.stats(),
            "phase_seconds": self.phases.seconds_by_phase(),
            "compile_seconds": self.phases.total_seconds,
            "cache": self.cache.stats(),
        }
        if self.autotuner is not None:
            out["autotune"] = self.autotuner.stats()
        return out

    #: Alias the benchmark harness binds.
    compile_stats = stats
