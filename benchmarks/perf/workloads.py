"""The four benchmark workloads.

Each workload is three plain functions:

``setup(seed, params)``
    Untimed.  Draws the inputs from the seeded generators in
    :mod:`repro.workloads` and builds the stack under test.  The seed
    stops here: the program receives prompts and arrival times, never
    the seed or the workload's name.
``timed(state)``
    The timed region.  Returns whatever ``finish`` needs.
``finish(state, outcome)``
    Untimed.  Turns the outcome into a :class:`Result`: every simulated
    number (the ``sim`` dict, hashed into ``sim_digest``), the token
    streams, the attempted/failed counts and the correctness problems.

Sizes are recorded in ``PARAMS`` (``full`` is what ``BENCHMARK.json``
measures; ``quick`` is a scaled-down smoke size whose numbers are not
comparable).  Greedy decoding with ``ignore_eos=True`` everywhere, so
token counts are fixed by the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import repro.obs as obs
from repro.api import EngineConfig, SamplingParams
from repro.cluster import ClusterConfig
from repro.core import ExperimentConfig, ExperimentRunner
from repro.workloads import (long_context_suite, mixed_chat_suite,
                             poisson_arrival_times, shared_prefix_suite)

from catalog import PAPER_ENERGY_GAIN, PAPER_SPEEDUP

__all__ = ["Result", "Workload", "WORKLOADS", "PARAMS"]

GREEDY = SamplingParams(ignore_eos=True)
PAPER_VARIANTS = ("unoptimized", "no-pipeline", "no-reuse", "no-fusion",
                  "full")

PARAMS: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "serve_mixed_cold": dict(
            n_chats=6, n_documents=2, chat_new_tokens=12,
            document_new_tokens=8, max_batch_tokens=32),
        "serve_longctx_warm": dict(
            n_prompts=4, prompt_words=32, max_new_tokens=48, ctx_bucket=32),
        "cluster4_affinity": dict(
            n_requests=64, n_groups=16, system_words=32, tail_words=5,
            max_new_tokens=16, rate_per_s=12000.0, kv_budget_bytes=49152),
        "paper_fig2_variants": dict(
            n_prompt_range=(5, 8), n_generated=128, position_stride=32),
    },
    "quick": {
        "serve_mixed_cold": dict(
            n_chats=2, n_documents=1, chat_new_tokens=3,
            document_new_tokens=2, max_batch_tokens=32),
        "serve_longctx_warm": dict(
            n_prompts=2, prompt_words=12, max_new_tokens=6, ctx_bucket=32),
        "cluster4_affinity": dict(
            n_requests=16, n_groups=4, system_words=32, tail_words=5,
            max_new_tokens=8, rate_per_s=12000.0, kv_budget_bytes=49152),
        "paper_fig2_variants": dict(
            n_prompt_range=(5, 8), n_generated=8, position_stride=32),
    },
}


@dataclass
class Result:
    """What one timed repetition produced, apart from its host time."""

    #: Every simulated number, by metric name.  Exact for a fixed seed.
    sim: Dict[str, float]
    #: Generated token streams in submission order (empty when the
    #: workload decodes nothing, as the paper experiment does not).
    tokens: List[List[int]]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    timed: Callable
    finish: Callable
    #: Timed repetitions per child process.  Cold workloads need a fresh
    #: process per repetition; the warm one repeats over its warmed stack.
    reps_per_child: int = 1
    #: Per-layer counts that must read 0 in the timed region of a traced
    #: run — the layers this workload is here to bypass.
    zero_in_timed: Tuple[str, ...] = ()


# ----------------------------------------------------------------------
# Shared: turning a ServeReport into simulated metrics and checks
# ----------------------------------------------------------------------
def _serve_sim(report, clock_hz: float) -> Dict[str, float]:
    """Simulated metrics of a (pooled) :class:`repro.serve.ServeReport`."""
    ttft = report.ttft_summary()
    itl = report.itl_summary()
    return {
        "sim_tokens_per_s": report.throughput_tokens_per_second,
        "sim_tokens_per_joule": report.tokens_per_joule,
        "sim_latency_p50_ms": report.latency_summary().p50 * 1e3,
        "serve.ttft_p50_ms": ttft.p50 * 1e3,
        "serve.itl_p50_ms": itl.p50 * 1e3,
        "serve.ttft_p95_ms": ttft.p95 * 1e3,
        "serve.itl_p95_ms": itl.p95 * 1e3,
        "serve.steps": report.n_steps,
        "serve.slots": report.total_slots,
        "serve.mean_batch_tokens": report.mean_batch_tokens,
        "serve.queue_wait_ms_mean": report.queue_wait_summary().mean * 1e3,
        "serve.peak_running": report.peak_running,
        "kvpool.prefix_hit_rate": report.prefix_hit_rate,
        "kvpool.mean_utilization": report.mean_kv_utilization,
        "kvpool.preemptions": report.n_preemptions,
        "quant.bytes_saved_share": report.quant_saved_fraction,
        "quant.dequant_overhead_share": report.dequant_overhead_fraction,
        "sim.makespan_ms": report.makespan_seconds * 1e3,
        "sim.cycles": round(report.compute_seconds * clock_hz),
        **_counter_sim(report.counters, report.energy),
    }


def _counter_sim(counters, energy) -> Dict[str, float]:
    return {
        "sim.packets": counters.instructions,
        "sim.hbm_read_gbytes": counters.hbm_read_bytes / 1e9,
        "sim.hbm_write_gbytes": counters.hbm_write_bytes / 1e9,
        "sim.dma_transfers": counters.dma_transfers,
        "sim.buffer_stall_cycles": counters.buffer_stall_cycles,
        "sim.memory_stall_cycles": counters.memory_stall_cycles,
        "sim.int8_macs": counters.int8_macs,
        "sim.sfu_flops": counters.sfu_flops,
        "fpga.energy_static_j": energy.static_j,
        "fpga.energy_dynamic_j": energy.dynamic_j,
        "fpga.energy_offchip_j": energy.offchip_j,
    }


def _in_submission_order(report, n_requests: int) -> list:
    """An engine's finished requests, lined up with the suite.

    Requests retire out of submission order and the report keeps
    completion order; ``serve`` names them ``req-0``, ``req-1``, ...
    """
    by_id = {m.request_id: m for m in report.requests}
    return [by_id[f"req-{i}"] for i in range(n_requests)
            if f"req-{i}" in by_id]


def _serve_result(report, requests, suite, llm) -> Result:
    """Check every request finished with its budgeted token count.

    ``requests`` are the finished requests in submission order.  The
    budget is the workload's, after the admission-time clamp to the
    context window (which bites on test-small).
    """
    max_seq_len = llm.model_config.max_seq_len
    problems: List[str] = []
    failed = 0
    if len(requests) != len(suite):
        problems.append(
            f"{len(suite)} requests submitted, {len(requests)} finished")
        failed += len(suite) - len(requests)
    for metrics, workload in zip(requests, suite):
        budget = min(workload.max_new_tokens,
                     max_seq_len - len(metrics.prompt_tokens))
        if (metrics.finish_reason not in ("length", "stop")
                or metrics.n_generated != budget):
            failed += 1
            problems.append(
                f"{metrics.request_id}: finish_reason="
                f"{metrics.finish_reason!r}, {metrics.n_generated} tokens "
                f"for a budget of {budget}")
    return Result(sim=_serve_sim(report, llm.platform.clock_hz),
                  tokens=[list(m.generated_tokens) for m in requests],
                  attempted=len(suite), failed=failed, problems=problems)


# ----------------------------------------------------------------------
# serve_mixed_cold
# ----------------------------------------------------------------------
def _mixed_setup(seed: int, p: dict) -> dict:
    suite = mixed_chat_suite(
        p["n_chats"], p["n_documents"],
        chat_new_tokens=p["chat_new_tokens"],
        document_new_tokens=p["document_new_tokens"], seed=seed)
    config = EngineConfig(paged=True, chunked_prefill=True, policy="priority",
                          max_batch_tokens=p["max_batch_tokens"])
    llm = config.build_llm()
    return {"suite": suite, "llm": llm, "engine": config.build_engine(llm)}


def _mixed_timed(state: dict):
    return state["engine"].serve(state["suite"], GREEDY)


def _mixed_finish(state: dict, report) -> Result:
    llm = state["llm"]
    requests = _in_submission_order(report, len(state["suite"]))
    result = _serve_result(report, requests, state["suite"], llm)
    # Greedy one-shot reference for the first two requests.  A coarse
    # position stride keeps its (unused) timing simulation to two steps.
    for metrics in requests[:2]:
        reference = llm.accelerator.generate(
            metrics.prompt_tokens, metrics.n_generated, stop_at_eos=False,
            position_stride=llm.model_config.max_seq_len)
        if reference.generated_tokens != list(metrics.generated_tokens):
            result.failed += 1
            result.problems.append(
                f"{metrics.request_id}: served tokens differ from the "
                "one-shot greedy reference")
    return result


# ----------------------------------------------------------------------
# serve_longctx_warm
# ----------------------------------------------------------------------
def _longctx_serve(state: dict):
    engine = state["config"].build_engine(state["llm"])
    return engine.serve(state["suite"], GREEDY)


def _longctx_setup(seed: int, p: dict) -> dict:
    suite = long_context_suite(p["n_prompts"], p["prompt_words"],
                               p["max_new_tokens"], seed=seed)
    config = EngineConfig(ctx_bucket=p["ctx_bucket"])
    state = {"suite": suite, "config": config, "llm": config.build_llm()}
    # The cold pass fills the compile cache; its tokens are the
    # reference the warm passes must reproduce.
    cold = _longctx_serve(state)
    state["cold_tokens"] = {m.request_id: list(m.generated_tokens)
                            for m in cold.requests}
    state["misses_after_cold"] = _cache_misses(state["llm"])
    return state


def _cache_misses(llm) -> int:
    return llm.accelerator.timing.compile_stats()["cache"]["misses"]


def _longctx_finish(state: dict, report) -> Result:
    requests = _in_submission_order(report, len(state["suite"]))
    result = _serve_result(report, requests, state["suite"], state["llm"])
    warm = {m.request_id: list(m.generated_tokens) for m in requests}
    if warm != state["cold_tokens"]:
        result.failed += 1
        result.problems.append("warm-pass tokens differ from the cold pass")
    missed = _cache_misses(state["llm"]) - state["misses_after_cold"]
    if missed:
        result.failed += 1
        result.problems.append(
            f"{missed} compile misses in the timed region of a warm pass")
    return result


# ----------------------------------------------------------------------
# cluster4_affinity
# ----------------------------------------------------------------------
def _cluster_setup(seed: int, p: dict) -> dict:
    n = p["n_requests"]
    suite = shared_prefix_suite(n, p["system_words"], p["tail_words"],
                                p["max_new_tokens"], seed=seed,
                                n_groups=p["n_groups"])
    # A seeded Poisson schedule, rescaled so the last request arrives at
    # exactly n / rate: every seed offers the same load over the same
    # span, and the makespan (hence tokens per simulated second) is set
    # by the system's backlog, not by the sum of n random gaps.
    drawn = poisson_arrival_times(n, p["rate_per_s"], seed=seed)
    stretch = (n / p["rate_per_s"]) / drawn[-1]
    arrivals = [t * stretch for t in drawn]
    config = ClusterConfig(
        n_replicas=4, route="affinity",
        engine=EngineConfig(
            model="test-small", max_vocab=512, paged=True,
            chunked_prefill=True, max_batch_tokens=16, ctx_bucket=32,
            quant="int8", quant_kv=True,
            kv_budget_bytes=p["kv_budget_bytes"]))
    tracer = obs.Tracer()
    cluster = config.build_cluster(tracer=tracer,
                                   metrics=obs.MetricsRegistry())
    return {"suite": suite, "arrivals": arrivals, "cluster": cluster,
            "tracer": tracer}


def _cluster_timed(state: dict):
    report = state["cluster"].serve(state["suite"], GREEDY,
                                    arrivals=state["arrivals"])
    report.as_dict()
    # Looked up on the package at call time so the traced run's wrappers
    # (installed on ``repro.obs``) see these calls.
    payload = obs.build_chrome_trace(state["tracer"], report=report.pooled)
    return report, obs.validate_chrome_trace(payload)


def _cluster_finish(state: dict, outcome) -> Result:
    report, trace_errors = outcome
    cluster = state["cluster"]
    result = _serve_result(report.pooled, cluster.results(), state["suite"],
                           cluster.llm)
    if trace_errors:
        result.failed += 1
        result.problems.append(
            f"validate_chrome_trace: {len(trace_errors)} errors, first: "
            f"{trace_errors[0]}")
    routing = report.routing
    loads = [int(v) for v in routing.get("decisions", {}).values()]
    loads += [0] * (report.n_replicas - len(loads))
    mean_load = sum(loads) / len(loads)
    result.sim.update({
        "cluster.affinity_hits": routing.get("affinity_hits", 0),
        "cluster.affinity_spills": routing.get("affinity_spills", 0),
        "cluster.replica_load_max_over_mean": (
            max(loads) / mean_load if mean_load else 0.0),
        "obs.spans": len(state["tracer"]),
        "sim.last_arrival_ms": state["arrivals"][-1] * 1e3,
    })
    return result


# ----------------------------------------------------------------------
# paper_fig2_variants
# ----------------------------------------------------------------------
def _paper_setup(seed: int, p: dict) -> dict:
    # The experiment is timing-only and takes a prompt *length*; the
    # seed draws it from a range inside which the number of simulated
    # positions (the host work) does not change.
    n_prompt = random.Random(seed).randint(*p["n_prompt_range"])
    config = ExperimentConfig(
        model="stories15M", variants=PAPER_VARIANTS, n_prompt=n_prompt,
        n_generated=p["n_generated"], position_stride=p["position_stride"],
        energy_accounting="effective")
    return {"runner": ExperimentRunner(config)}


def _paper_timed(state: dict):
    return state["runner"].run_all()


def _paper_finish(state: dict, results) -> Result:
    by_variant = {r.variant: r for r in results}
    problems = [f"variant {name} produced no positive latency"
                for name in PAPER_VARIANTS
                if name not in by_variant
                or not by_variant[name].latency_seconds > 0]
    full = by_variant["full"].metrics
    base = by_variant["unoptimized"].metrics
    speedup = base.total_seconds / full.total_seconds
    energy_gain = full.tokens_per_joule / base.tokens_per_joule
    totals = {}
    for result in results:
        for key, value in _counter_sim(result.metrics.counters,
                                       result.metrics.energy).items():
            totals[key] = totals.get(key, 0) + value
    sim = {
        "sim_tokens_per_s": full.decode_tokens_per_second,
        "sim_tokens_per_joule": full.tokens_per_joule,
        "sim_latency_p50_ms": full.total_seconds * 1e3,
        "paper.speedup_x": speedup,
        "paper.speedup_rel_err": abs(speedup - PAPER_SPEEDUP) / PAPER_SPEEDUP,
        "paper.energy_gain_x": energy_gain,
        "paper.energy_gain_rel_err": (
            abs(energy_gain - PAPER_ENERGY_GAIN) / PAPER_ENERGY_GAIN),
        "sim.cycles": sum(r.metrics.total_cycles for r in results),
        **totals,
    }
    for result in results:
        sim[f"paper.latency_ms.{result.variant}"] = (
            result.latency_seconds * 1e3)
    return Result(sim=sim, tokens=[], attempted=len(PAPER_VARIANTS),
                  failed=len(problems), problems=problems)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("serve_mixed_cold", _mixed_setup, _mixed_timed, _mixed_finish),
    Workload("serve_longctx_warm", _longctx_setup, _longctx_serve,
             _longctx_finish, reps_per_child=3,
             zero_in_timed=("accel.pipeline_run_calls",
                            "compile.cache_misses")),
    Workload("cluster4_affinity", _cluster_setup, _cluster_timed,
             _cluster_finish),
    Workload("paper_fig2_variants", _paper_setup, _paper_timed,
             _paper_finish, zero_in_timed=("accel.execute_slots_calls",)),
)}
