"""Benchmark drivers as a library: configs and suites in, result records out.

The paper's evaluation is a set of comparisons — one workload served by a
design point and by its baseline twin — and every comparison this
reproduction ships is a plain function here: :func:`serve_bench` (an
engine vs sequential generation, its *plain* twin and, quantised, its
*fp32* twin), :func:`cluster_bench` (a replica cluster vs a *single
engine*), :func:`compile_bench` (autotuned vs *fixed* tiling) and
:func:`bench_matrix` (the rows of ``BENCH_v1.json``).  Nothing in this
module parses arguments, prints or writes files: ``repro.cli`` maps flags
onto a config, calls one function and prints the record it gets back, and
tests call the same functions, failure branches included.

Every twin, probe and baseline run is ``config.build_engine(llm).serve(
workloads, params, arrivals)`` followed by ``engine.streams()`` —
:class:`~repro.serve.ServingEngine` and
:class:`~repro.cluster.ClusterEngine` share that surface — and every
check is :func:`stream_mismatches` between two such runs.  Only the
featured ``serve_bench`` run enters through the completions layer,
because its JSON payload publishes the ``CompletionResponse`` objects.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .api import (CompletionRequest, CompletionResponse, CompletionService,
                  EngineConfig, SamplingParams, SpecConfig)
from .cluster import ClusterConfig, ClusterReport
from .llama.evaluate import divergence_report, perplexity
from .llama.model import LlamaModel
from .quant import QuantConfig
from .serve import ServeReport, ServingEngine
from .workloads.prompts import (PromptSuite, default_suite,
                                long_context_suite, mixed_chat_suite,
                                repetitive_suite, shared_prefix_suite)

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_MATRIX",
    "QUANT_BENCH_ROWS",
    "ClusterBench",
    "ServeBench",
    "baseline_config",
    "bench_matrix",
    "cluster_bench",
    "cluster_bench_matrix",
    "compile_bench",
    "select_suite",
    "serve_bench",
    "simulated_only",
    "staggered_mixed_arrivals",
    "stream_mismatches",
]


# ----------------------------------------------------------------------
# Shared pieces: suite selection, the plain twin, the identity check
# ----------------------------------------------------------------------
def select_suite(kind: str, requests: int, tokens: int, seed: int, *,
                 prefix_groups: int = 1,
                 adversarial: bool = False) -> PromptSuite:
    """The workload suite a benchmark serves, by ``kind``.

    ``"default"`` mixed-length prompts; ``"shared-prefix"`` prompts
    behind ``prefix_groups`` system preambles (what prefix caching
    accelerates); ``"repetitive"`` templated prompts (what n-gram
    drafting accelerates; ``adversarial`` makes them novel text instead);
    ``"mixed"`` short chats at priority 0 plus one long-prompt document
    per three chats at priority 1.
    """
    if kind == "default":
        return default_suite(n_prompts=requests, max_new_tokens=tokens,
                             seed=seed)
    if kind == "shared-prefix":
        return shared_prefix_suite(n_prompts=requests, max_new_tokens=tokens,
                                   seed=seed, n_groups=prefix_groups)
    if kind == "repetitive":
        return repetitive_suite(n_prompts=requests, max_new_tokens=tokens,
                                seed=seed, adversarial=adversarial)
    if kind == "mixed":
        return mixed_chat_suite(n_chats=requests,
                                n_documents=max(1, requests // 3),
                                chat_new_tokens=tokens, seed=seed)
    raise ValueError(f"unknown suite kind {kind!r}")


def baseline_config(config: EngineConfig) -> EngineConfig:
    """The plain twin a served run is checked/compared against.

    Same model, KV memory and backend — but no speculation, monolithic
    prefill and strict-FIFO admission, so it isolates exactly the
    features under test.  Greedy token streams must be identical.
    """
    return dataclasses.replace(config, speculative=None,
                               chunked_prefill=False,
                               prefill_chunk_tokens=None, policy="fifo")


def stream_mismatches(workloads: Iterable, streams: Iterable,
                      reference: Iterable, what: str) -> List[str]:
    """One message per request whose stream differs from the reference's.

    Both runs serve the suite in submission order, so the comparison is
    request by request (duplicate prompts must not collapse).  ``what``
    names the two sides, e.g. ``"cluster and single-engine"``.
    """
    return [
        f"MISMATCH on {workload.prompt[:40]!r}...: {what} token streams "
        "differ"
        for workload, got, want in zip(workloads, streams, reference)
        if list(got) != list(want)
    ]


def staggered_mixed_arrivals(config: EngineConfig, llm, suite,
                             ignore_eos: bool):
    """Arrival schedule that lands document prefills mid-chat-decode.

    The inter-token stall chunked prefill prevents only exists when a
    long prompt arrives while short requests are streaming; with every
    arrival at t=0 the engine simply prefills everything first.  A probe
    run on the plain twin calibrates the mean step time, then chats
    arrive at t=0 and each document a few (simulated) steps into the
    chats' decode.  Returns ``(workloads, arrivals)`` sorted by arrival
    so FIFO admission order equals arrival order.
    """
    plain = baseline_config(config)
    probe = plain.build_engine(llm=llm).serve(
        suite, SamplingParams(ignore_eos=ignore_eos),
        arrivals=plain.arrival_times(len(suite)))
    step_s = probe.makespan_seconds / max(1, probe.n_steps)
    timed = []
    n_docs = 0
    for workload in suite:
        if getattr(workload, "priority", 0) > 0:
            timed.append((workload, (6 + 5 * n_docs) * step_s))
            n_docs += 1
        else:
            timed.append((workload, 0.0))
    timed.sort(key=lambda pair: pair[1])
    return [w for w, _ in timed], [t for _, t in timed]


def simulated_only(value):
    """``value`` without its host wall-clock sections, at any depth.

    Reports keep every host-clock value under one key, ``"host"``, so
    what is left is simulated and regenerates bit-for-bit.
    """
    if isinstance(value, dict):
        return {key: simulated_only(item) for key, item in value.items()
                if key != "host"}
    if isinstance(value, list):
        return [simulated_only(item) for item in value]
    return value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


# ----------------------------------------------------------------------
# serve-bench: one engine vs its sequential / plain / fp32 twins
# ----------------------------------------------------------------------
@dataclass
class ServeBench:
    """Everything one :func:`serve_bench` run measured."""

    engine: ServingEngine
    report: ServeReport
    completions: List[CompletionResponse]
    #: Report of the plain twin; ``None`` when it was not served.
    plain_report: Optional[ServeReport]
    #: Accuracy-vs-speed block against the fp32 twin (quantised runs).
    quant_comparison: Optional[dict]
    sequential_throughput: float
    aggregate: dict
    #: Requests whose stream differs from the plain twin's (``check``).
    mismatches: List[str]
    #: Unmet quantisation gates (``check`` on a quantised config).
    quant_failures: List[str]

    @property
    def payload(self) -> dict:
        """The JSON document ``serve-bench --json`` publishes."""
        return {
            "requests": self.report.request_rows(),
            "completions": [c.as_dict() for c in self.completions],
            "aggregate": self.aggregate,
        }

    @property
    def failures(self) -> List[str]:
        return self.mismatches + self.quant_failures


def serve_bench(config: EngineConfig, suite, *, ignore_eos: bool = False,
                stagger_mixed: bool = False, check: bool = False,
                min_agreement: float = 0.85, tracer=None,
                metrics=None) -> ServeBench:
    """Serve ``suite`` on ``config``'s engine and on its baseline twins.

    The featured run goes through the frontend API end to end — one
    declarative config assembles scheduler + KV manager + backend, and
    requests enter through the OpenAI-style completions layer — and is
    the only one carrying ``tracer`` / ``metrics``.  Around it:

    * a *sequential* baseline, one ``SpeedLLM.generate`` per request;
    * when any feature under test is on (speculation, chunked prefill, a
      non-FIFO policy) or ``check`` is set, the *plain* twin: its serving
      throughput is the honest baseline a feature speedup is measured
      against (the sequential one already includes the batching win),
      and ``check`` records every request whose tokens the features
      changed;
    * when ``config`` is quantised, the *fp32* twin, for an
      accuracy-vs-speed comparison ``check`` gates on ``min_agreement``.

    ``stagger_mixed`` replaces the arrival schedule with
    :func:`staggered_mixed_arrivals` (for the mixed suite).
    """
    llm = config.build_llm()
    params = SamplingParams(ignore_eos=ignore_eos)
    if stagger_mixed:
        workloads, arrivals = staggered_mixed_arrivals(
            config, llm, suite, ignore_eos)
    else:
        workloads = list(suite)
        arrivals = config.arrival_times(len(workloads))

    sequential = [llm.generate(w.prompt, max_new_tokens=w.max_new_tokens)
                  for w in workloads]
    seq_throughput = _ratio(
        sum(len(out.generated_tokens) for out in sequential),
        sum(out.metrics.total_seconds for out in sequential))

    engine = config.build_engine(llm=llm, tracer=tracer, metrics=metrics)
    service = CompletionService(engine)
    pending = [
        service.submit(
            CompletionRequest(prompt=workload.prompt,
                              max_tokens=workload.max_new_tokens,
                              ignore_eos=ignore_eos,
                              priority=getattr(workload, "priority", 0)),
            arrival_time=arrivals[i] if arrivals else None,
        )
        for i, workload in enumerate(workloads)
    ]
    report = engine.run()
    completions = [p.response() for p in pending]
    streams = engine.streams()

    plain_config = baseline_config(config)
    plain_report = None
    mismatches: List[str] = []
    if plain_config != config or check:
        plain = plain_config.build_engine(llm=llm)
        plain_report = plain.serve(workloads, params, arrivals=arrivals)
        if check:
            mismatches = stream_mismatches(
                workloads, streams, plain.streams(),
                "featured and baseline greedy")

    quant_comparison = None
    quant_failures: List[str] = []
    if config.quant_config() not in (None, QuantConfig.fp32()):
        quant_comparison, quant_failures = _fp32_twin_comparison(
            config, llm, report, streams, workloads, params, arrivals,
            min_agreement if check else None)

    tps = report.throughput_tokens_per_second
    aggregate = report.as_dict()
    if quant_comparison is not None:
        aggregate["quant_comparison"] = quant_comparison
    aggregate["sequential_throughput_tokens_per_second"] = seq_throughput
    aggregate["speedup"] = _ratio(tps, seq_throughput)
    aggregate["backend"] = engine.backend.describe()
    if plain_report is not None:
        plain_tps = plain_report.throughput_tokens_per_second
        aggregate["plain_throughput_tokens_per_second"] = plain_tps
        if config.speculative is not None:
            aggregate["speculative_speedup"] = _ratio(tps, plain_tps)
        baseline_itl_p95 = plain_report.itl_summary().p95
        aggregate["baseline_itl_p95_ms"] = baseline_itl_p95 * 1e3
        aggregate["itl_p95_reduction"] = (
            1.0 - report.itl_summary().p95 / baseline_itl_p95
            if baseline_itl_p95 > 0 else 0.0)
    if check:
        aggregate["token_identity_check"] = (
            "fail" if mismatches else "pass")
        if quant_comparison is not None:
            aggregate["quant_check"] = "fail" if quant_failures else "pass"
    return ServeBench(
        engine=engine, report=report, completions=completions,
        plain_report=plain_report, quant_comparison=quant_comparison,
        sequential_throughput=seq_throughput, aggregate=aggregate,
        mismatches=mismatches, quant_failures=quant_failures)


def _fp32_twin_comparison(config: EngineConfig, llm, report: ServeReport,
                          streams, workloads, params, arrivals,
                          min_agreement: Optional[float]):
    """Serve the identical suite on a full-precision twin; compare.

    The twin shares every serving knob but runs the fp32 datapath
    (``quant="fp32"``, its own weights — quantisation changes *values*,
    unlike scheduling features, so token identity is not expected).  The
    comparison reports speed (tokens/s side by side, HBM bytes streamed,
    bytes saved) against accuracy (teacher-forced greedy agreement and
    logit drift, perplexity on the fp32 twin's own greedy continuations,
    free-decode prefix agreement).  Returns ``(comparison, failures)``;
    ``failures`` lists the unmet gates when ``min_agreement`` is given.
    """
    fp32_config = dataclasses.replace(config, quant="fp32", quant_kv=False,
                                      fp32_logits=False)
    fp32_llm = fp32_config.build_llm()
    fp32_engine = fp32_config.build_engine(llm=fp32_llm)
    fp32_report = fp32_engine.serve(workloads, params, arrivals=arrivals)
    fp32_streams = fp32_engine.streams()

    # Teacher-forced comparison on the fp32 twin's greedy continuations:
    # both models consume the same ground-truth token each position, so
    # one early disagreement cannot cascade the way free decoding does.
    quant_model = LlamaModel(llm.accelerator.functional_checkpoint())
    fp32_model = LlamaModel(fp32_llm.accelerator.functional_checkpoint())
    sequences = []
    for workload, stream in list(zip(workloads, fp32_streams))[:4]:
        tokens = (fp32_llm.tokenizer.encode(workload.prompt, bos=True,
                                            eos=False) + stream)
        if len(tokens) >= 2:
            sequences.append(tokens[:48])
    drift = divergence_report(quant_model, fp32_model, sequences)

    # Free-decode prefix agreement: how far each served stream tracks
    # the fp32 twin before the first divergence (cascades after that).
    prefixes = []
    for quant_t, fp32_t in zip(streams, fp32_streams):
        n = min(len(quant_t), len(fp32_t))
        if n == 0:
            continue
        match = 0
        for a, b in zip(quant_t, fp32_t):
            if a != b:
                break
            match += 1
        prefixes.append(match / n)

    fp32_tps = fp32_report.throughput_tokens_per_second
    quant_tps = report.throughput_tokens_per_second
    comparison = {
        "quant": report.quant,
        "fp32_throughput_tokens_per_second": fp32_tps,
        "quant_throughput_tokens_per_second": quant_tps,
        "quant_speedup": _ratio(quant_tps, fp32_tps),
        "fp32_hbm_bytes": fp32_report.counters.hbm_bytes,
        "quant_hbm_bytes": report.counters.hbm_bytes,
        "quant_bytes_saved": report.quant_bytes_saved,
        "quant_saved_fraction": report.quant_saved_fraction,
        "dequant_overhead_fraction": report.dequant_overhead_fraction,
        "teacher_forced": drift.as_dict(),
        "greedy_prefix_agreement": _ratio(sum(prefixes), len(prefixes)),
        "perplexity_quant": perplexity(quant_model, sequences),
        "perplexity_fp32": perplexity(fp32_model, sequences),
    }
    failures = []
    if min_agreement is not None:
        if drift.token_agreement < min_agreement:
            failures.append(
                f"teacher-forced token agreement "
                f"{drift.token_agreement:.3f} below the required "
                f"{min_agreement:.2f}")
        if report.quant_bytes_saved <= 0:
            failures.append("quantised run reported no HBM bytes saved")
    return comparison, failures


# ----------------------------------------------------------------------
# cluster-bench: a routed replica cluster vs one engine
# ----------------------------------------------------------------------
@dataclass
class ClusterBench:
    """Everything one :func:`cluster_bench` run measured."""

    report: ClusterReport
    #: The JSON document ``serve-bench --replicas N --json`` publishes.
    payload: dict
    #: Requests whose stream differs from the single engine's (``check``).
    mismatches: List[str]


def cluster_bench(cluster_config: ClusterConfig, suite, *,
                  ignore_eos: bool = False, check: bool = False,
                  tracer=None, metrics=None) -> ClusterBench:
    """Serve ``suite`` through a replica cluster; report pooled metrics.

    ``check`` re-serves the identical suite on a *single* engine built
    from the same :class:`~repro.api.EngineConfig` and records every
    request whose token stream differs — routing, disaggregated KV
    handoff and autoscaling decide where and when a request runs, never
    what it generates.
    """
    engine_config = cluster_config.engine
    llm = engine_config.build_llm()
    workloads = list(suite)
    arrivals = engine_config.arrival_times(len(workloads)) or None
    params = SamplingParams(ignore_eos=ignore_eos)

    cluster = cluster_config.build_cluster(llm=llm, tracer=tracer,
                                           metrics=metrics)
    report = cluster.serve(workloads, params, arrivals=arrivals)

    mismatches: List[str] = []
    if check:
        single = engine_config.build_engine(llm=llm)
        single.serve(workloads, params, arrivals=arrivals)
        mismatches = stream_mismatches(
            workloads, cluster.streams(), single.streams(),
            "cluster and single-engine")

    payload = report.as_dict()
    payload["token_identity_check"] = (
        ("fail" if mismatches else "pass") if check else None)
    return ClusterBench(report=report, payload=payload,
                        mismatches=mismatches)


# ----------------------------------------------------------------------
# compile-bench: fixed vs autotuned tiling, plus warm cache reuse
# ----------------------------------------------------------------------
def compile_bench(config: EngineConfig, *, requests: int, prompt_words: int,
                  tokens: int, min_speedup: float = 0.0,
                  min_hit_rate: float = 0.0) -> dict:
    """Fixed vs autotuned tiling on the long-context suite, plus warm reuse.

    Serves the suite single-stream (``max_running=1``) so the comparison
    isolates per-step program quality from batching effects — folding
    amortises the MPE fill/drain latency exactly where batch merging
    cannot.  Both sides use ``config``'s context bucketing, so the *only*
    difference between them is the tiling plan; greedy token streams must
    be identical.  The autotuned engine is then re-served warm (same
    model/accelerator stack, hence a hot compile cache) to measure the
    wall-clock stepping speedup cache reuse buys and the steady-state hit
    rate.

    Returns the ``COMPILE_BENCH_v1`` payload.  Its ``"failures"`` lists
    every unmet gate — token drift, ``min_speedup`` (autotuned over fixed
    simulated tokens/s), ``min_hit_rate`` (steady-state) — and
    ``"verdict"`` is ``"pass"`` only when it is empty.
    """
    suite = long_context_suite(n_prompts=requests, prompt_words=prompt_words,
                               max_new_tokens=tokens, seed=config.seed)
    fixed_config = dataclasses.replace(config, max_running=1, autotune=False)
    auto_config = dataclasses.replace(fixed_config, autotune=True)
    params = SamplingParams(ignore_eos=True)

    def timed_serve(engine_config: EngineConfig, llm):
        engine = engine_config.build_engine(llm=llm)
        start = time.perf_counter()
        report = engine.serve(suite, params)
        return engine, report, time.perf_counter() - start

    fixed, fixed_report, fixed_wall = timed_serve(
        fixed_config, fixed_config.build_llm())
    auto_llm = auto_config.build_llm()
    cold, auto_report, cold_wall = timed_serve(auto_config, auto_llm)
    auto_stats = cold.backend.compiler.stats()
    # Warm re-serve: a fresh engine over the same stack starts with every
    # steady-state program already cached.
    warm, warm_report, warm_wall = timed_serve(auto_config, auto_llm)

    # Cold and warm autotuned streams must both equal the fixed ones.
    drifted = stream_mismatches(
        suite, zip(cold.streams(), warm.streams()),
        zip(fixed.streams(), fixed.streams()), "fixed and autotuned")
    speedup = _ratio(auto_report.throughput_tokens_per_second,
                     fixed_report.throughput_tokens_per_second)
    steady_hit_rate = warm_report.compile_cache_hit_rate
    autotune = dict(auto_stats.get("autotune", {}))
    # The search's wall-clock belongs with the other host-clock values.
    autotune_seconds = autotune.pop("seconds", 0.0)

    failures = []
    if drifted:
        failures.append(f"{len(drifted)} request token streams drifted "
                        "between fixed and autotuned tiling")
    if speedup < min_speedup:
        failures.append(f"autotuned speedup {speedup:.4f}x below the "
                        f"required {min_speedup:.2f}x")
    if steady_hit_rate < min_hit_rate:
        failures.append(f"steady-state hit rate {steady_hit_rate:.1%} "
                        f"below the required {min_hit_rate:.0%}")
    quant = config.quant_config()
    return {
        "schema": "COMPILE_BENCH_v1",
        "model": config.model,
        "variant": config.variant,
        "suite": suite.name,
        "n_requests": len(suite),
        "prompt_words": prompt_words,
        "max_new_tokens": tokens,
        "seed": config.seed,
        "ctx_bucket": config.ctx_bucket,
        "quant": quant.label if quant is not None else config.quant,
        "fixed": fixed_report.as_dict(),
        "autotuned": auto_report.as_dict(),
        "autotune": autotune,
        "speedup": speedup,
        "cold_hit_rate": auto_report.compile_cache_hit_rate,
        "steady_state_hit_rate": steady_hit_rate,
        "token_identity": "fail" if drifted else "pass",
        "failures": failures,
        "verdict": "fail" if failures else "pass",
        "host": {
            "fixed_seconds": fixed_wall,
            "cold_seconds": cold_wall,
            "warm_seconds": warm_wall,
            "warm_vs_cold_speedup": _ratio(cold_wall, warm_wall),
            "autotune_seconds": autotune_seconds,
        },
    }


# ----------------------------------------------------------------------
# --bench-out: the BENCH_v1 config matrix
# ----------------------------------------------------------------------
#: Version tag of the benchmark report schema :func:`bench_matrix` builds.
BENCH_SCHEMA = "BENCH_v1"

#: The serving-config matrix swept on the mixed chat/document workload.
#: Each entry overrides the plain base config; the first is the baseline
#: everything else is read against.
BENCH_MATRIX = (
    ("fifo-unchunked", {"policy": "fifo", "chunked_prefill": False,
                        "prefill_chunk_tokens": None, "speculative": None}),
    ("fifo-chunked", {"policy": "fifo", "chunked_prefill": True}),
    ("priority-chunked", {"policy": "priority", "chunked_prefill": True}),
    ("fairness-chunked", {"policy": "fairness", "chunked_prefill": True}),
    ("paged-priority-chunked", {"paged": True, "policy": "priority",
                                "chunked_prefill": True}),
    ("spec-ngram-fifo", {"policy": "fifo", "chunked_prefill": False,
                         "prefill_chunk_tokens": None,
                         "speculative": SpecConfig(method="ngram")}),
)

#: Quantisation rows of the benchmark report: datapath precision sweeps
#: served on the same workload.  Unlike the serving matrix these cannot
#: share the base llm — quantisation changes the weights themselves — so
#: each row builds its own model/accelerator stack.  All three rows run
#: on a fixed 2-channel HBM platform (bytes-bound, the regime weight
#: streaming dominates and quantisation pays off) so the row-to-row
#: comparison isolates datapath precision.
QUANT_BENCH_ROWS = (
    ("quant-fp32", {"quant": "fp32", "hbm_channels": 2}),
    ("quant-int8", {"quant": "int8", "quant_kv": True, "hbm_channels": 2}),
    ("quant-int4", {"quant": "int4", "quant_kv": True, "hbm_channels": 2}),
)


def cluster_bench_matrix(base: EngineConfig):
    """The cluster rows the benchmark report carries beside the matrix.

    Two fixed scenarios, sized so their headline claims are meaningful:

    * **scaling** — the mixed chat/document workload on one replica vs
      four least-loaded replicas (data-parallel scale-out; four replicas
      must clearly beat one);
    * **affinity** — a multi-tenant shared-prefix workload (8 preamble
      groups) on four replicas under round-robin vs sticky prefix
      affinity; a small per-replica admission window sequences each
      group's members so co-location turns into measured prefix hits.

    Sizes are fixed rather than caller-derived so a committed
    BENCH_v1.json regenerates bit-for-bit regardless of the smoke-test's
    ``requests``.  Yields ``(name, cluster_config, suite)``.
    """
    scaling_engine = dataclasses.replace(
        base, paged=True, max_batch_tokens=16, max_running=16,
        chunked_prefill=False, prefill_chunk_tokens=None, policy="fifo",
        speculative=None, arrival_policy="immediate", arrival_rate=None,
        burst_rate=None)
    affinity_engine = dataclasses.replace(scaling_engine, max_running=2)
    scaling_suite = list(mixed_chat_suite(n_chats=48, n_documents=16,
                                          seed=23))
    affinity_suite = list(shared_prefix_suite(
        n_prompts=32, n_groups=8, system_words=96, tail_words=3,
        max_new_tokens=16, seed=13))
    return (
        ("cluster-1-least-loaded",
         ClusterConfig(engine=scaling_engine, n_replicas=1,
                       route="least-loaded"), scaling_suite),
        ("cluster-4-least-loaded",
         ClusterConfig(engine=scaling_engine, n_replicas=4,
                       route="least-loaded"), scaling_suite),
        ("cluster-4-rr-prefix",
         ClusterConfig(engine=affinity_engine, n_replicas=4, route="rr"),
         affinity_suite),
        ("cluster-4-affinity-prefix",
         ClusterConfig(engine=affinity_engine, n_replicas=4,
                       route="affinity"), affinity_suite),
    )


def bench_matrix(base: EngineConfig, *, requests: int, tokens: int,
                 ignore_eos: bool = False,
                 prefill_chunk_tokens: Optional[int] = None,
                 log: Callable[[str], None] = lambda line: None) -> dict:
    """Serve the mixed workload under every matrix config; BENCH_v1 payload.

    ``base`` is the plain config: the matrix itself decides which
    features each row turns on (``prefill_chunk_tokens`` sets the chunked
    rows' budget).
    The payload is versioned (:data:`BENCH_SCHEMA`) and, passed through
    :func:`simulated_only`, fully simulated — latencies are engine-clock
    seconds — so the same call on the same seed reproduces it
    bit-for-bit.  ``log`` receives one progress line per finished row.
    """
    llm = base.build_llm()
    params = SamplingParams(ignore_eos=ignore_eos)
    suite = mixed_chat_suite(n_chats=requests,
                             n_documents=max(1, requests // 3),
                             chat_new_tokens=tokens,
                             document_new_tokens=max(4, tokens // 4),
                             seed=base.seed)
    # One arrival schedule, shared by every config, with document
    # prefills landing mid-chat-decode (the regime the matrix compares).
    workloads, arrivals = staggered_mixed_arrivals(
        base, llm, suite, ignore_eos)
    configs: Dict[str, dict] = {}
    for name, overrides in BENCH_MATRIX:
        if overrides.get("chunked_prefill") and prefill_chunk_tokens:
            overrides = {**overrides,
                         "prefill_chunk_tokens": prefill_chunk_tokens}
        report = dataclasses.replace(base, **overrides).build_engine(
            llm=llm).serve(workloads, params, arrivals=arrivals)
        configs[name] = entry = report.as_dict()
        log(f"{name:24s} {report.throughput_tokens_per_second:8.1f} tok/s"
            f"  itl p95 {entry['itl_p95_ms']:.3f} ms"
            f"  kv util {report.mean_kv_utilization:.1%}"
            f"  accept {report.acceptance_rate:.1%}")
    # Quantisation rows: precision sweep on its own stacks (quantised
    # weights differ by value, so the shared llm cannot be reused).
    fp32_tps = None
    for name, overrides in QUANT_BENCH_ROWS:
        report = dataclasses.replace(base, **overrides).build_engine().serve(
            workloads, params, arrivals=arrivals)
        configs[name] = report.as_dict()
        tps = report.throughput_tokens_per_second
        if name == "quant-fp32":
            fp32_tps = tps
        log(f"{name:24s} {tps:8.1f} tok/s"
            f"  hbm bytes {report.counters.hbm_bytes}"
            f"  saved {report.quant_bytes_saved}"
            + (f"  vs fp32 {tps / fp32_tps:.2f}x"
               if fp32_tps and name != "quant-fp32" else ""))
    for name, cluster_config, cluster_suite in cluster_bench_matrix(base):
        creport = cluster_config.build_cluster(llm=llm).serve(
            cluster_suite, SamplingParams(ignore_eos=True))
        configs[name] = entry = creport.as_dict()
        hits = entry["cluster"]["routing"].get("affinity_hits")
        log(f"{name:24s} {creport.throughput_tokens_per_second:8.1f} tok/s"
            f"  replicas {creport.n_replicas}"
            f"  prefix hits {creport.prefix_hit_rate:.1%}"
            + (f"  affinity hits {hits}" if hits is not None else ""))
    # Compilation rows: fixed vs autotuned tiling on the long-context
    # suite, served single-stream.  Sizes derive from the model's context
    # window (not the caller's requests/tokens) so the committed report
    # regenerates identically regardless of the smoke-test's flags.
    cap = llm.model_config.max_seq_len
    lc_tokens = min(96, max(8, cap // 2))
    lc_words = min(48, max(4, cap - lc_tokens - 16))
    compile_payload = compile_bench(
        EngineConfig(model=base.model, variant=base.variant, seed=37,
                     ctx_bucket=32),
        requests=4, prompt_words=lc_words, tokens=lc_tokens)
    # The gates are compile-bench's own; the report carries the numbers.
    del compile_payload["failures"], compile_payload["verdict"]
    for side in ("fixed", "autotuned"):
        configs[f"long-context-{side}"] = compile_payload.pop(side)
        tps = configs[f"long-context-{side}"][
            "throughput_tokens_per_second"]
        log(f"{'long-context-' + side:24s} {tps:8.1f} tok/s"
            + ("" if side == "fixed" else
               f"  autotuned speedup {compile_payload['speedup']:.2f}x"
               f"  steady-state hit rate "
               f"{compile_payload['steady_state_hit_rate']:.1%}"))
    return simulated_only({
        "schema": BENCH_SCHEMA,
        "model": llm.model_config.name,
        "suite": suite.name,
        "n_requests": len(suite),
        "seed": base.seed,
        "max_batch_tokens": base.max_batch_tokens,
        "configs": configs,
        "compile": compile_payload,
    })
