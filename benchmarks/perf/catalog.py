"""The benchmark's metric and workload catalogue.

``BENCHMARK.json`` at the repository root carries the part of this the
driver reads (names, units, direction, bounds, one-line reasons); the
fuller record — which clock a metric runs on (its layer is the prefix
of its name) and which end-to-end metric it is predicted to move on
which workload —
lives here, and ``tests/test_harness.py`` checks the two agree.

Importing this module imports nothing heavy: the parent process of the
harness reads it before any child has started NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER", "WORKLOADS",
           "PAPER_SPEEDUP", "PAPER_ENERGY_GAIN"]

#: The source paper's two headline figures (full vs unoptimized design),
#: the only reference results the repository holds.
PAPER_SPEEDUP = 4.8
PAPER_ENERGY_GAIN = 1.18


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    clock: str           # "host" | "sim"
    bound: float         # share of the parent's median it may worsen by
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    kind: str            # "host" (seconds inside calls) | "exact" (counts, sim)
    moves: str           # predicted end-to-end effect, and where


#: name -> one-line reason (the ``why`` of BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "serve_mixed_cold": (
        "stories15M chats+documents on a cold compile cache: few large "
        "uncached steps, the cycle simulator dominates host time"),
    "serve_longctx_warm": (
        "same engine, warmed cache: every timed compile is a hit, host "
        "time is batched functional NumPy; reservation (non-paged) KV"),
    "cluster4_affinity": (
        "test-small, 4 replicas, int8+quantised KV, tracer on: many tiny "
        "steps, where serving-stack Python has its largest share"),
    "paper_fig2_variants": (
        "the paper's five-variant experiment via one-shot "
        "simulate_generation: sequential and no-reuse executor paths"),
}

END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", "host", 0.25,
             "host reference seconds of the timed region (median of "
             "repetitions)"),
    EndToEnd("setup_s", "s", "lower", "host", 0.25,
             "process start to start of the timed region: imports, weight "
             "synthesis, BPE training, quantisation, assembly, and the "
             "cold pass on serve_longctx_warm"),
    EndToEnd("peak_rss_mb", "MiB", "lower", "host", 0.10,
             "ru_maxrss of the measuring child process"),
    EndToEnd("sim_tokens_per_s", "tok/sim-s", "higher", "sim", 0.25,
             "generated tokens per simulated second (paper workload: "
             "decode tokens/s of the full variant)"),
    EndToEnd("sim_tokens_per_joule", "tok/J", "higher", "sim", 0.25,
             "generated tokens per simulated joule (paper workload: full "
             "variant)"),
    EndToEnd("sim_latency_p50_ms", "ms", "lower", "sim", 0.25,
             "median simulated request latency, scheduled arrival to last "
             "token (paper workload: the full variant's single request)"),
)

_ALL = "all workloads"
_SERVING = "the three serving workloads"
_CLUSTER = "cluster4_affinity"

PER_LAYER: Tuple[PerLayer, ...] = (
    # api ---------------------------------------------------------------
    PerLayer("api.build_s", "s", "lower", "host",
             f"setup_s on {_ALL} (build_llm/build_engine/build_cluster/"
             "ExperimentRunner)"),
    PerLayer("api.submit_s", "s", "lower", "host",
             f"wall_s on {_CLUSTER} only (tokenise + request creation)"),
    PerLayer("api.submit_calls", "count", "lower", "exact",
             f"api.submit_s; twice per request on {_CLUSTER}"),
    # serve -------------------------------------------------------------
    PerLayer("serve.step_self_s", "s", "lower", "host",
             f"wall_s on {_CLUSTER}; predicted <1 % on the stories15M "
             "serving workloads"),
    PerLayer("serve.admit_s", "s", "lower", "host", f"wall_s on {_CLUSTER}"),
    PerLayer("serve.build_step_s", "s", "lower", "host",
             f"wall_s on {_CLUSTER}"),
    PerLayer("serve.report_s", "s", "lower", "host", f"wall_s on {_CLUSTER}"),
    PerLayer("serve.steps", "count", "lower", "exact",
             f"multiplies every per-step host cost; {_SERVING}"),
    PerLayer("serve.slots", "count", "lower", "exact",
             "accel.execute_slots_s scales with it"),
    PerLayer("serve.mean_batch_tokens", "count", "higher", "exact",
             "up moves sim_tokens_per_s up and serve.itl_p95_ms up on "
             "serve_mixed_cold"),
    PerLayer("serve.queue_wait_ms_mean", "ms", "lower", "exact",
             f"serve.ttft_p50_ms and serve.ttft_p95_ms on {_CLUSTER}"),
    PerLayer("serve.peak_running", "count", "higher", "exact",
             "concurrency the KV budget admitted; bounds batch size"),
    PerLayer("serve.ttft_p50_ms", "ms", "lower", "exact",
             "median time to first token, from scheduled arrival; part of "
             "sim_latency_p50_ms"),
    PerLayer("serve.itl_p50_ms", "ms", "lower", "exact",
             "median gap between output tokens; times the decode budget it "
             "is the rest of sim_latency_p50_ms"),
    PerLayer("serve.ttft_p95_ms", "ms", "lower", "exact",
             f"tail TTFT; only {_CLUSTER} has the >=200 requests p95 needs"),
    PerLayer("serve.itl_p95_ms", "ms", "lower", "exact",
             "tail inter-token gap; chunked prefill and priority shape it "
             "on serve_mixed_cold"),
    # kvpool ------------------------------------------------------------
    PerLayer("kvpool.prefix_hit_rate", "ratio", "higher", "exact",
             f"serve.ttft_p50_ms and sim_tokens_per_s on {_CLUSTER}; zero on "
             "serve_longctx_warm (reservation path), a change there is a "
             "bug"),
    PerLayer("kvpool.mean_utilization", "ratio", "higher", "exact",
             f"admitted batch size, so sim_tokens_per_s on {_CLUSTER}; the "
             "reserved share (~0.01) on the stories15M workloads"),
    PerLayer("kvpool.preemptions", "count", "lower", "exact",
             f"recomputed prefill, so serve.ttft_p50_ms on {_CLUSTER}"),
    # backend -----------------------------------------------------------
    PerLayer("backend.execute_step_s", "s", "lower", "host",
             f"wall_s on {_SERVING}"),
    PerLayer("backend.execute_step_calls", "count", "lower", "exact",
             "equals serve.steps"),
    PerLayer("backend.self_s", "s", "lower", "host",
             "should stay ~0 everywhere; growth flags a facade cost"),
    # accel -------------------------------------------------------------
    PerLayer("accel.execute_slots_s", "s", "lower", "host",
             "wall_s on serve_longctx_warm (largest layer), "
             "cluster4_affinity and serve_mixed_cold; zero on "
             "paper_fig2_variants"),
    PerLayer("accel.execute_slots_calls", "count", "lower", "exact",
             "equals serve.steps"),
    PerLayer("accel.functional_us_per_slot", "us", "lower", "host",
             "execute_slots_s per slot; a stacked execute_batch moves it"),
    PerLayer("accel.pipeline_run_s", "s", "lower", "host",
             "wall_s on paper_fig2_variants and serve_mixed_cold (largest "
             "layer) and cluster4_affinity; zero in the timed region of "
             "serve_longctx_warm"),
    PerLayer("accel.pipeline_run_calls", "count", "lower", "exact",
             "one per compile miss that is simulated; must be 0 on "
             "serve_longctx_warm"),
    PerLayer("accel.host_us_per_packet", "us", "lower", "host",
             "pipeline_run_s per simulated tile packet; the executor/"
             "MemoryPort speed figure"),
    PerLayer("accel.setup_pipeline_run_s", "s", "lower", "host",
             "setup_s on serve_longctx_warm (its cold pass); zero elsewhere"),
    PerLayer("accel.simulate_generation_s", "s", "lower", "host",
             "wall_s on paper_fig2_variants only"),
    PerLayer("accel.init_s", "s", "lower", "host",
             "SpeedLLMAccelerator construction (weight quantisation); "
             "setup_s on serving workloads, wall_s on paper_fig2_variants "
             "where variants are built lazily"),
    PerLayer("accel.mpe_utilization", "ratio", "higher", "exact",
             "sim_tokens_per_s and paper.speedup_x"),
    PerLayer("accel.load_busy_share", "ratio", "higher", "exact",
             "sim_tokens_per_s (bytes-bound steps)"),
    PerLayer("accel.sfu_busy_share", "ratio", "higher", "exact",
             "sim_tokens_per_s"),
    PerLayer("accel.store_busy_share", "ratio", "higher", "exact",
             "sim_tokens_per_s"),
    # sim ---------------------------------------------------------------
    PerLayer("sim.cycles", "count", "lower", "exact",
             "sim_tokens_per_s; a host-only optimisation leaves it "
             "identical"),
    PerLayer("sim.packets", "count", "lower", "exact",
             "host time of the cycle simulator scales with it"),
    PerLayer("sim.hbm_read_gbytes", "GB", "lower", "exact",
             "sim_tokens_per_s and fpga.energy_offchip_j"),
    PerLayer("sim.hbm_write_gbytes", "GB", "lower", "exact",
             "sim_tokens_per_s and fpga.energy_offchip_j"),
    PerLayer("sim.dma_transfers", "count", "lower", "exact",
             "MemorySystemModel.issue calls, so accel.pipeline_run_s"),
    PerLayer("sim.buffer_stall_cycles", "count", "lower", "exact",
             "sim.cycles (overlaps memory stalls; do not sum them)"),
    PerLayer("sim.memory_stall_cycles", "count", "lower", "exact",
             "sim.cycles (overlaps buffer stalls; do not sum them)"),
    # fpga --------------------------------------------------------------
    PerLayer("fpga.energy_static_j", "J", "lower", "exact",
             "sim_tokens_per_joule, paper.energy_gain_x"),
    PerLayer("fpga.energy_dynamic_j", "J", "lower", "exact",
             "sim_tokens_per_joule, paper.energy_gain_x"),
    PerLayer("fpga.energy_offchip_j", "J", "lower", "exact",
             "sim_tokens_per_joule (part of dynamic)"),
    # compile -----------------------------------------------------------
    PerLayer("compile.compile_step_s", "s", "lower", "host",
             "miss cost: wall_s on serve_mixed_cold and "
             "paper_fig2_variants; hit cost: cluster4_affinity and "
             "serve_longctx_warm"),
    PerLayer("compile.compile_step_calls", "count", "lower", "exact",
             "one per step per timing view"),
    PerLayer("compile.cache_hits", "count", "higher", "exact",
             "a hit skips lowering and simulation"),
    PerLayer("compile.cache_misses", "count", "lower", "exact",
             "each costs one lowering and one pipeline run"),
    PerLayer("compile.cache_hit_rate", "ratio", "higher", "exact",
             "wall_s on every workload; 1.0 on serve_longctx_warm"),
    PerLayer("compile.hit_us_mean", "us", "lower", "host",
             "wall_s on the warm workloads; a dearer cache key shows here"),
    PerLayer("compile.miss_ms_mean", "ms", "lower", "host",
             "wall_s on the cold workloads (lowering only; simulation is "
             "accel.pipeline_run_s)"),
    PerLayer("compile.phase_build_s", "s", "lower", "host",
             "compile.miss_ms_mean (graph package)"),
    PerLayer("compile.phase_fuse_s", "s", "lower", "host",
             "compile.miss_ms_mean (graph package)"),
    PerLayer("compile.phase_tile_s", "s", "lower", "host",
             "compile.miss_ms_mean"),
    PerLayer("compile.phase_schedule_s", "s", "lower", "host",
             "compile.miss_ms_mean (batch merge)"),
    # cluster -----------------------------------------------------------
    PerLayer("cluster.run_self_s", "s", "lower", "host",
             f"wall_s on {_CLUSTER} only"),
    PerLayer("cluster.route_s", "s", "lower", "host",
             f"wall_s on {_CLUSTER} only"),
    PerLayer("cluster.route_calls", "count", "lower", "exact",
             "one per request"),
    PerLayer("cluster.affinity_hits", "count", "higher", "exact",
             f"kvpool.prefix_hit_rate on {_CLUSTER}"),
    PerLayer("cluster.affinity_spills", "count", "lower", "exact",
             f"serve.ttft_p95_ms on {_CLUSTER}"),
    PerLayer("cluster.replica_load_max_over_mean", "ratio", "lower", "exact",
             f"serve.ttft_p95_ms on {_CLUSTER} (slowest replica sets the "
             "tail)"),
    # obs ---------------------------------------------------------------
    PerLayer("obs.spans", "count", "lower", "exact",
             f"obs.export_s and obs.validate_s on {_CLUSTER}"),
    PerLayer("obs.export_s", "s", "lower", "host", f"wall_s on {_CLUSTER}"),
    PerLayer("obs.validate_s", "s", "lower", "host", f"wall_s on {_CLUSTER}"),
    # quant -------------------------------------------------------------
    PerLayer("quant.convert_s", "s", "lower", "host",
             "accel.init_s (quantise+dequantise of functional weights)"),
    PerLayer("quant.bytes_saved_share", "ratio", "higher", "exact",
             f"sim_tokens_per_s on {_CLUSTER}"),
    PerLayer("quant.dequant_overhead_share", "ratio", "lower", "exact",
             f"sim_tokens_per_s on {_CLUSTER}"),
    # paper -------------------------------------------------------------
    PerLayer("paper.speedup_x", "ratio", "higher", "exact",
             "unoptimized/full simulated latency on paper_fig2_variants "
             f"(paper: {PAPER_SPEEDUP})"),
    PerLayer("paper.speedup_rel_err", "ratio", "lower", "exact",
             "relative error of paper.speedup_x against the paper"),
    PerLayer("paper.energy_gain_x", "ratio", "higher", "exact",
             "full/unoptimized tokens per joule on paper_fig2_variants "
             f"(paper: {PAPER_ENERGY_GAIN})"),
    PerLayer("paper.energy_gain_rel_err", "ratio", "lower", "exact",
             "relative error of paper.energy_gain_x against the paper"),
    # harness -----------------------------------------------------------
    PerLayer("trace.coverage_share", "ratio", "higher", "host",
             "share of the traced wall_s inside named layer spans"),
)
