"""Command-line interface of the SpeedLLM reproduction.

The subcommands cover the everyday workflows:

* ``generate``  — run one text generation on the simulated accelerator
  and print the completion plus the latency/throughput/energy metrics;
* ``bench``     — run the Fig. 2 experiment (all design variants on one
  workload) and print the normalized-latency and energy tables;
* ``serve-bench`` — serve a suite of concurrent requests through the
  continuous-batching :class:`~repro.serve.ServingEngine` (assembled
  from a declarative :class:`~repro.api.EngineConfig`, submitted through
  the OpenAI-style completions layer) and compare aggregate throughput
  against the sequential one-shot baseline; with ``--speculative
  {ngram,draft}`` the same suite is also served speculation-off for an
  honest speculative speedup, and ``--check`` asserts token identity
  between the two; with ``--replicas N`` (or ``--disaggregate`` /
  ``--autoscale``) the suite is served through the
  :class:`~repro.cluster.ClusterEngine` — N routed engine replicas
  (``--route {rr,least-loaded,affinity}``), optionally split into
  prefill/decode pools or autoscaled against queue depth — and
  ``--check`` asserts every routed request matches a single engine;
  with ``--quant int8|int4`` the same suite is also served on a
  full-precision twin for an accuracy-vs-speed report (tokens/s side
  by side, HBM bytes saved, teacher-forced greedy agreement and logit
  drift, perplexity), and ``--check`` gates on the agreement floor;
* ``quantize`` — convert a checkpoint (a preset's synthetic weights or
  a llama2.c ``.bin``) into a ``.slq`` quantised sidecar file holding
  packed INT8/INT4 payloads plus per-group scales, and verify the
  sidecar round-trips;
* ``compile-bench`` — compare fixed vs autotuned tiling on the
  long-context suite (single-stream, same context bucketing on both
  sides, token identity asserted), then re-serve warm to measure the
  wall-clock stepping speedup and steady-state hit rate the
  shape-bucketed compile cache buys; ``--min-speedup`` and
  ``--min-hit-rate`` turn the two headline numbers into exit-code
  assertions CI can gate on;
* ``serve-api`` — the frontend-API demo: run OpenAI-style completions
  (streamed chunk-by-chunk by default) through the engine, optionally
  asserting that the reassembled stream matches the non-streamed result;
* ``validate``  — check that the accelerator's functional output matches
  the reference engine on a prompt suite;
* ``export-graph`` — dump one decode-step operator graph (optionally
  fused) as Graphviz DOT or JSON.

Invoke via ``python -m repro.cli <subcommand>`` or the ``speedllm``
console script installed with the package.  See ``docs/ARCHITECTURE.md``
for how a request travels through the stack each command exercises.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .accel.variants import PAPER_VARIANTS
from .api import (CompletionRequest, CompletionService, EngineConfig,
                  SamplingParams, SpecConfig)
from .cluster import ROUTES, ClusterConfig
from .core.report import format_table, render_bar_chart, write_json
from .core.runner import ExperimentConfig, ExperimentRunner
from .core.speedllm import SpeedLLM
from .core.validation import validate_accelerator
from .graph.builder import build_decode_graph
from .graph.export import to_dot, to_json
from .graph.fusion import fuse_graph
from .llama.config import available_presets, preset
from .workloads.prompts import (default_suite, long_context_suite,
                                mixed_chat_suite, repetitive_suite,
                                shared_prefix_suite)

__all__ = ["main", "build_parser"]


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Engine-assembly flags shared by ``serve-bench`` and ``serve-api``."""
    parser.add_argument("--batch-tokens", type=int, default=16,
                        help="token positions per batched step")
    parser.add_argument("--prefill-chunk", type=int, default=8,
                        help="prompt positions one request may prefill per step")
    parser.add_argument("--max-running", type=int, default=16,
                        help="maximum concurrently admitted requests")
    parser.add_argument("--kv-budget-mb", type=int, default=256,
                        help="KV-cache memory budget in MiB")
    parser.add_argument("--paged", action="store_true",
                        help="paged-block KV allocation with prefix sharing "
                             "and preemption instead of worst-case "
                             "reservations")
    parser.add_argument("--block-size", type=int, default=16,
                        help="token positions per KV block (with --paged)")
    parser.add_argument("--chunked-prefill", action="store_true",
                        help="share a per-step prefill token budget across "
                             "requests so long prompts ride along decode "
                             "steps instead of monopolising them")
    parser.add_argument("--prefill-chunk-tokens", type=int, default=None,
                        help="per-step prefill budget with --chunked-prefill "
                             "(default: half of --batch-tokens)")
    parser.add_argument("--policy", choices=("fifo", "priority", "fairness"),
                        default="fifo",
                        help="scheduling policy: 'fifo' admits in arrival "
                             "order, 'priority' admits urgent SLO tiers "
                             "first and preempts the least urgent, "
                             "'fairness' is priority with aging so low "
                             "tiers cannot starve")
    parser.add_argument("--fairness-aging", type=float, default=0.1,
                        help="seconds of queue wait worth one priority "
                             "level (with --policy fairness)")
    parser.add_argument("--speculative", choices=("ngram", "draft"),
                        default=None,
                        help="speculative decoding: 'ngram' drafts by "
                             "prompt lookup (no extra weights), 'draft' "
                             "runs a small draft model; each decode turn "
                             "verifies up to --spec-tokens drafts in one "
                             "weight-stationary pass")
    parser.add_argument("--spec-tokens", type=int, default=4,
                        help="draft tokens per verify step (with "
                             "--speculative)")
    parser.add_argument("--draft-model", default=None,
                        help="draft-model preset for --speculative draft "
                             "(default: 'self', the target's own weights "
                             "— exact greedy acceptance)")
    parser.add_argument("--ngram-max", type=int, default=3,
                        help="longest suffix n-gram the ngram drafter "
                             "matches (with --speculative ngram)")
    _add_quant_options(parser)
    parser.add_argument("--autotune", action="store_true",
                        help="autotune the tiling plan per compiled step "
                             "shape (the compile cache keeps the "
                             "lowest-cycle candidate program)")
    parser.add_argument("--ctx-bucket", type=int, default=1,
                        help="context-bucket granularity of the compile "
                             "cache; >1 rounds attention windows up so "
                             "steady-state steps reuse one cached program "
                             "per bucket (1 = compile every exact shape)")
    parser.add_argument("--hbm-channels", type=int, default=None,
                        help="override the simulated U280's HBM "
                             "pseudo-channel count (default 32; fewer "
                             "channels make decode bytes-bound — the "
                             "regime quantisation accelerates most)")
    parser.add_argument("--tensor-parallel", type=int, default=1,
                        help="shard execution over N simulated accelerators "
                             "(tensor-parallel attention heads / FFN "
                             "channels; 1 = single local device)")
    parser.add_argument("--interconnect-gbps", type=float, default=25.0,
                        help="per-link ring-interconnect bandwidth in GB/s "
                             "(with --tensor-parallel > 1)")
    parser.add_argument("--interconnect-latency-us", type=float, default=1.0,
                        help="per-ring-step interconnect latency in "
                             "microseconds (with --tensor-parallel > 1)")


def _add_quant_options(parser: argparse.ArgumentParser) -> None:
    """Quantisation flags shared by serving and compile benchmarks."""
    parser.add_argument("--quant", choices=("int8", "int4", "fp32"),
                        default=None,
                        help="weight quantisation for the datapath: 'int8' "
                             "or 'int4' group-quantised streaming with "
                             "byte-accurate savings accounting, 'fp32' a "
                             "full-precision datapath (the honest baseline "
                             "quantised runs are compared against)")
    parser.add_argument("--quant-kv", action="store_true",
                        help="also store the KV cache group-quantised at "
                             "INT8 (with --quant int8/int4)")
    parser.add_argument("--quant-group", type=int, default=64,
                        help="quantisation group size (scales stored per "
                             "group of this many weights)")
    parser.add_argument("--fp32-logits", action="store_true",
                        help="keep the classifier head (and a shared "
                             "embedding table) at fp32 (with --quant)")


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    """Observability flags of the serving benchmarks."""
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Perfetto-loadable Chrome-trace "
                             "timeline of the featured run to PATH "
                             "(request-lifecycle spans on the simulated "
                             "clock, one track per replica)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the Prometheus text exposition of the "
                             "live metrics registry to PATH")
    parser.add_argument("--trace-cycles", action="store_true",
                        help="with --trace-out: also record cycle-level "
                             "accelerator intervals and merge them under "
                             "each step span")


def _obs_sinks(args: argparse.Namespace):
    """(tracer, registry) the output flags ask for (None = free no-op)."""
    from .obs import MetricsRegistry, Tracer
    tracer = Tracer() if getattr(args, "trace_out", None) else None
    registry = (MetricsRegistry() if getattr(args, "metrics_out", None)
                else None)
    return tracer, registry


def _write_obs_outputs(args: argparse.Namespace, tracer, registry,
                       report, meta: dict) -> int:
    """Write --trace-out / --metrics-out artifacts; count of problems."""
    problems = []
    # Keep stdout clean when the report itself streams there (--json -).
    out = sys.stderr if getattr(args, "json", None) == "-" else sys.stdout
    if tracer is not None:
        from .obs import (build_chrome_trace, validate_chrome_trace,
                          write_chrome_trace)
        payload = build_chrome_trace(tracer, report=report,
                                     registry=registry, meta=meta)
        problems = validate_chrome_trace(payload)
        for problem in problems:
            print(f"TRACE INVALID: {problem}", file=sys.stderr)
        write_chrome_trace(args.trace_out, payload)
        print(f"trace written to {args.trace_out} "
              f"({payload['otherData']['n_spans']} spans over "
              f"{len(payload['otherData']['tracks'])} tracks; open in "
              "Perfetto or chrome://tracing)", file=out)
    if registry is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(registry.render())
        print(f"metrics written to {args.metrics_out}", file=out)
    return len(problems)


def _spec_config(args: argparse.Namespace) -> Optional[SpecConfig]:
    """The speculative policy the CLI flags describe (None when off)."""
    if args.speculative is None:
        return None
    return SpecConfig(
        method=args.speculative,
        num_draft_tokens=args.spec_tokens,
        ngram_max=args.ngram_max,
        draft_model=args.draft_model,
    )


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """Map parsed CLI flags onto one declarative engine configuration."""
    arrival_rate = getattr(args, "arrival_rate", None)
    arrival_policy = "immediate"
    if arrival_rate is not None:
        arrival_policy = ("bursty" if getattr(args, "bursty", False)
                          else "poisson")
    return EngineConfig(
        speculative=_spec_config(args),
        trace_cycles=getattr(args, "trace_cycles", False),
        model=args.model,
        variant=args.variant,
        seed=args.seed,
        max_batch_tokens=args.batch_tokens,
        max_running=args.max_running,
        prefill_chunk=args.prefill_chunk,
        kv_budget_bytes=args.kv_budget_mb * 1024 * 1024,
        paged=args.paged,
        block_size=args.block_size,
        chunked_prefill=args.chunked_prefill,
        prefill_chunk_tokens=args.prefill_chunk_tokens,
        policy=args.policy,
        fairness_aging_s=args.fairness_aging,
        quant=getattr(args, "quant", None),
        quant_kv=getattr(args, "quant_kv", False),
        quant_group=getattr(args, "quant_group", 64),
        fp32_logits=getattr(args, "fp32_logits", False),
        hbm_channels=getattr(args, "hbm_channels", None),
        autotune=getattr(args, "autotune", False),
        ctx_bucket=getattr(args, "ctx_bucket", 1),
        tensor_parallel=args.tensor_parallel,
        interconnect_gbps=args.interconnect_gbps,
        interconnect_latency_us=args.interconnect_latency_us,
        arrival_policy=arrival_policy,
        arrival_rate=arrival_rate,
        burst_rate=getattr(args, "burst_rate", None),
    )


def _cluster_config(args: argparse.Namespace,
                    engine: EngineConfig) -> ClusterConfig:
    """Map the cluster CLI flags onto one declarative cluster config."""
    return ClusterConfig(
        engine=engine,
        n_replicas=args.replicas,
        route=args.route,
        disaggregate=args.disaggregate,
        n_prefill_replicas=args.prefill_replicas,
        autoscale=args.autoscale,
        max_replicas=args.max_replicas,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="speedllm",
        description="SpeedLLM reproduction: simulated FPGA LLM inference accelerator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # generate ----------------------------------------------------------
    gen = sub.add_parser("generate", help="generate text on the simulated accelerator")
    gen.add_argument("prompt", help="prompt text")
    gen.add_argument("--model", default="stories15M", choices=available_presets())
    gen.add_argument("--variant", default="full", choices=sorted(PAPER_VARIANTS))
    gen.add_argument("--tokens", type=int, default=48)
    gen.add_argument("--temperature", type=float, default=0.0)
    gen.add_argument("--top-p", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--stride", type=int, default=16,
                     help="timing-simulation position stride")
    gen.add_argument("--checkpoint", default=None,
                     help="optional llama2.c .bin checkpoint to load")
    gen.add_argument("--tokenizer", default=None,
                     help="optional tokenizer.bin to load")

    # bench -------------------------------------------------------------
    bench = sub.add_parser("bench", help="run the Fig. 2 variant comparison")
    bench.add_argument("--model", default="stories15M", choices=available_presets())
    bench.add_argument("--prompt-tokens", type=int, default=8)
    bench.add_argument("--tokens", type=int, default=64)
    bench.add_argument("--stride", type=int, default=16)
    bench.add_argument("--energy", choices=("effective", "board"), default="effective")
    bench.add_argument("--json", default=None, help="write result rows to this path")

    # serve-bench -------------------------------------------------------
    serve = sub.add_parser(
        "serve-bench",
        help="benchmark continuous-batching serving against sequential generation",
    )
    serve.add_argument("--model", default="stories15M", choices=available_presets())
    serve.add_argument("--variant", default="full", choices=sorted(PAPER_VARIANTS))
    serve.add_argument("--requests", type=int, default=8,
                       help="number of concurrent requests to serve")
    serve.add_argument("--tokens", type=int, default=32,
                       help="decode budget per request")
    serve.add_argument("--seed", type=int, default=3)
    _add_engine_options(serve)
    serve.add_argument("--shared-prefix", action="store_true",
                       help="serve prompts sharing one system preamble "
                            "(the workload prefix caching accelerates)")
    serve.add_argument("--repetitive", action="store_true",
                       help="serve templated, highly repetitive prompts "
                            "(the workload n-gram draft lookup "
                            "accelerates)")
    serve.add_argument("--mixed", action="store_true",
                       help="serve short interactive chats (priority 0) "
                            "mixed with long-prompt batch documents "
                            "(priority 1) — the workload chunked prefill "
                            "and priority scheduling exist for")
    serve.add_argument("--adversarial", action="store_true",
                       help="with --repetitive: novel-text prompts whose "
                            "n-grams never recur (the drafter's "
                            "worst case)")
    serve.add_argument("--ignore-eos", action="store_true",
                       help="never retire on EOS (fixed-length decode "
                            "benchmarking)")
    serve.add_argument("--check", action="store_true",
                       help="re-serve the suite on a plain baseline "
                            "engine (no speculation, unchunked prefill, "
                            "fifo) and fail unless every token stream is "
                            "identical — scheduling and speculation must "
                            "never change what a request generates; with "
                            "--quant, additionally gate on the "
                            "teacher-forced agreement floor "
                            "(--min-agreement) and on bytes actually "
                            "saved")
    serve.add_argument("--min-agreement", type=float, default=0.85,
                       help="teacher-forced greedy-agreement floor the "
                            "quantised datapath must reach vs the fp32 "
                            "twin (with --quant and --check)")
    serve.add_argument("--bench-out", default=None, metavar="PATH",
                       help="run the fixed serving-config matrix on the "
                            "mixed workload and write a versioned "
                            "BENCH_v1.json benchmark report to PATH")
    serve.add_argument("--arrival-rate", type=float, default=None,
                       help="Poisson request arrival rate in requests per "
                            "simulated second (default: all requests "
                            "arrive at t=0)")
    serve.add_argument("--bursty", action="store_true",
                       help="with --arrival-rate: Markov-modulated arrivals "
                            "alternating calm and burst phases instead of "
                            "a flat Poisson process")
    serve.add_argument("--burst-rate", type=float, default=None,
                       help="burst-phase arrival rate with --bursty "
                            "(default: 8x the calm --arrival-rate)")
    serve.add_argument("--prefix-groups", type=int, default=1,
                       help="with --shared-prefix: number of distinct "
                            "preamble groups (tenants) the prompts are "
                            "split across")
    serve.add_argument("--replicas", type=int, default=1,
                       help="serve through a cluster of N engine replicas "
                            "behind a router (1 = the single engine)")
    serve.add_argument("--route", choices=ROUTES, default="rr",
                       help="cluster routing policy (with --replicas > 1): "
                            "'rr' round-robin, 'least-loaded' by token "
                            "backlog and KV pressure, 'affinity' sticky "
                            "prefix-hash placement")
    serve.add_argument("--disaggregate", action="store_true",
                       help="split the cluster into a prefill pool and a "
                            "decode pool with modeled KV handoff between "
                            "them")
    serve.add_argument("--prefill-replicas", type=int, default=1,
                       help="replicas dedicated to prefill with "
                            "--disaggregate")
    serve.add_argument("--autoscale", action="store_true",
                       help="spawn/retire replicas against queue-depth "
                            "watermarks during the run")
    serve.add_argument("--max-replicas", type=int, default=None,
                       help="autoscaling ceiling (default: twice the "
                            "starting pool)")
    serve.add_argument("--compile-stats", action="store_true",
                       help="print the compilation-pipeline breakdown after "
                            "serving: per-phase compile seconds, compile "
                            "cache hit rate and the autotuner's search "
                            "size/win ratio")
    serve.add_argument("--json", default=None,
                       help="write per-request rows and aggregates to this "
                            "path ('-' for stdout)")
    _add_trace_options(serve)

    # trace -------------------------------------------------------------
    trace = sub.add_parser(
        "trace",
        help="export (or validate) a Perfetto-loadable Chrome-trace "
             "timeline of a served suite",
    )
    trace.add_argument("--validate", default=None, metavar="PATH",
                       help="validate an existing trace file (schema tag, "
                            "span nesting, clock bounds, span-derived "
                            "TTFT/ITL vs the embedded report) instead of "
                            "generating one; exits non-zero on problems")
    trace.add_argument("--model", default="stories15M",
                       choices=available_presets())
    trace.add_argument("--variant", default="full",
                       choices=sorted(PAPER_VARIANTS))
    trace.add_argument("--requests", type=int, default=6,
                       help="number of requests in the traced suite")
    trace.add_argument("--tokens", type=int, default=16,
                       help="decode budget per request")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--mixed", action="store_true",
                       help="trace the mixed chat/document suite instead "
                            "of the default one")
    trace.add_argument("--ignore-eos", action="store_true",
                       help="never retire on EOS (fixed-length decode)")
    _add_engine_options(trace)
    trace.add_argument("--trace-cycles", action="store_true",
                       help="also record cycle-level accelerator intervals "
                            "and merge them under each step span")
    trace.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="also write the Prometheus text exposition of "
                            "the live metrics registry to PATH")
    trace.add_argument("--out", default="trace.json",
                       help="trace JSON output path (default: trace.json)")

    # quantize ----------------------------------------------------------
    quant = sub.add_parser(
        "quantize",
        help="convert a checkpoint to a quantised .slq sidecar file",
    )
    quant.add_argument("--model", default="stories15M",
                       choices=available_presets())
    quant.add_argument("--checkpoint", default=None,
                       help="llama2.c .bin checkpoint to quantise "
                            "(default: the preset's synthetic weights)")
    quant.add_argument("--seed", type=int, default=0,
                       help="seed of the synthetic weights (without "
                            "--checkpoint)")
    quant.add_argument("--mode", choices=("int8", "int4"), default="int8",
                       help="weight quantisation mode")
    quant.add_argument("--quant-group", type=int, default=64,
                       help="quantisation group size")
    quant.add_argument("--quant-kv", action="store_true",
                       help="record an INT8 KV-cache spec in the sidecar")
    quant.add_argument("--fp32-logits", action="store_true",
                       help="keep the classifier head at fp32")
    quant.add_argument("--out", default=None,
                       help="output .slq path (default: "
                            "<model>-<mode>.slq)")
    quant.add_argument("--json", default=None,
                       help="write the conversion summary to this path "
                            "('-' for stdout)")

    # compile-bench -----------------------------------------------------
    cbench = sub.add_parser(
        "compile-bench",
        help="fixed vs autotuned tiling on the long-context suite, plus a "
             "warm re-serve measuring wall-clock compile-cache reuse",
    )
    cbench.add_argument("--model", default="stories15M",
                        choices=available_presets())
    cbench.add_argument("--variant", default="full",
                        choices=sorted(PAPER_VARIANTS))
    cbench.add_argument("--requests", type=int, default=4,
                        help="long-context requests to serve")
    cbench.add_argument("--prompt-words", type=int, default=48,
                        help="words per long-context prompt")
    cbench.add_argument("--tokens", type=int, default=96,
                        help="decode budget per request")
    cbench.add_argument("--seed", type=int, default=37)
    _add_quant_options(cbench)
    cbench.add_argument("--ctx-bucket", type=int, default=32,
                        help="compile-cache context-bucket granularity "
                             "(both sides of the comparison use it, so the "
                             "only difference is the tiling plan)")
    cbench.add_argument("--min-speedup", type=float, default=1.10,
                        help="fail unless autotuned simulated tokens/sec "
                             "reaches this multiple of the fixed tiling")
    cbench.add_argument("--min-hit-rate", type=float, default=0.90,
                        help="fail unless the steady-state (warm re-serve) "
                             "compile-cache hit rate reaches this")
    cbench.add_argument("--json", default=None,
                        help="write the comparison report to this path "
                             "('-' for stdout)")

    # serve-api ---------------------------------------------------------
    api = sub.add_parser(
        "serve-api",
        help="OpenAI-style streamed completions over the serving engine",
    )
    api.add_argument("--model", default="stories15M", choices=available_presets())
    api.add_argument("--variant", default="full", choices=sorted(PAPER_VARIANTS))
    api.add_argument("--seed", type=int, default=0)
    api.add_argument("--prompt", action="append", default=None,
                     help="prompt to complete (repeatable; default: a small "
                          "demo suite)")
    api.add_argument("--max-tokens", type=int, default=32,
                     help="decode budget per completion")
    api.add_argument("--temperature", type=float, default=0.0)
    api.add_argument("--top-p", type=float, default=1.0)
    api.add_argument("--stop", action="append", default=None,
                     help="stop sequence truncating the completion "
                          "(repeatable)")
    api.add_argument("--logprobs", type=int, default=None,
                     help="record the top-K token logprobs per generated "
                          "token")
    api.add_argument("--no-stream", action="store_true",
                     help="return terminal responses instead of streaming "
                          "chunks")
    api.add_argument("--check", action="store_true",
                     help="also run each completion non-streamed and fail "
                          "unless the reassembled stream matches it "
                          "token-for-token")
    _add_engine_options(api)
    api.add_argument("--json", default=None,
                     help="write completions and the serving report to this "
                          "path ('-' for stdout)")

    # validate ----------------------------------------------------------
    val = sub.add_parser("validate",
                         help="compare accelerator output against the reference engine")
    val.add_argument("--model", default="test-small", choices=available_presets())
    val.add_argument("--variant", default="full", choices=sorted(PAPER_VARIANTS))
    val.add_argument("--prompts", type=int, default=3)
    val.add_argument("--tokens", type=int, default=12)
    val.add_argument("--seed", type=int, default=0)

    # export-graph ------------------------------------------------------
    export = sub.add_parser("export-graph",
                            help="export a decode-step operator graph")
    export.add_argument("--model", default="stories15M", choices=available_presets())
    export.add_argument("--context", type=int, default=0,
                        help="context length of the decode step")
    export.add_argument("--fused", action="store_true",
                        help="apply the operator-fusion pass first")
    export.add_argument("--format", choices=("dot", "json"), default="dot")
    export.add_argument("--output", default="-",
                        help="output file ('-' for stdout)")
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    if args.checkpoint:
        llm = SpeedLLM.from_checkpoint(
            args.checkpoint, args.tokenizer, variant=args.variant,
            position_stride=args.stride,
        )
    else:
        llm = SpeedLLM(model=args.model, variant=args.variant, seed=args.seed,
                       position_stride=args.stride)
    out = llm.generate(args.prompt, max_new_tokens=args.tokens,
                       temperature=args.temperature, top_p=args.top_p,
                       seed=args.seed)
    print(out.text)
    print()
    print(f"latency            {out.latency_ms:.3f} ms")
    print(f"decode throughput  {out.decode_tokens_per_second:.1f} tokens/s")
    print(f"energy efficiency  {out.tokens_per_joule:.1f} tokens/J")
    print(f"average power      {out.metrics.average_power_w:.1f} W")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        model=args.model,
        n_prompt=args.prompt_tokens,
        n_generated=args.tokens,
        position_stride=args.stride,
        energy_accounting=args.energy,
    )
    runner = ExperimentRunner(config)
    rows = runner.result_rows()
    normalized = runner.fig2a_normalized_latency()
    efficiency = runner.fig2b_energy_efficiency()
    for row in rows:
        row["normalized_latency"] = normalized[row["variant"]]
        row["relative_efficiency"] = efficiency[row["variant"]]
    print(format_table(rows, columns=[
        "variant", "latency_ms", "normalized_latency",
        "decode_tokens_per_second", "tokens_per_joule", "relative_efficiency",
    ]))
    print()
    print(render_bar_chart({v: 1.0 / n for v, n in normalized.items()}, unit="x"))
    print(f"\nheadline speedup: {runner.headline_speedup():.2f}x (paper: up to 4.8x)")
    if args.json:
        write_json(args.json, rows)
        print(f"rows written to {args.json}")
    return 0


def _serve_suite(config: EngineConfig, llm, workloads, ignore_eos: bool,
                 arrivals=None, tracer=None, metrics=None):
    """Serve one workload suite through the completions layer; report."""
    engine = config.build_engine(llm=llm, tracer=tracer, metrics=metrics)
    service = CompletionService(engine)
    workloads = list(workloads)
    if arrivals is None:
        arrivals = (config.arrival_times(len(workloads))
                    or [None] * len(workloads))
    pending = [
        service.submit(
            CompletionRequest(prompt=workload.prompt,
                              max_tokens=workload.max_new_tokens,
                              ignore_eos=ignore_eos,
                              priority=getattr(workload, "priority", 0)),
            arrival_time=arrival,
        )
        for workload, arrival in zip(workloads, arrivals)
    ]
    report = engine.run()
    return engine, report, [p.response() for p in pending]


def _staggered_mixed_arrivals(config: EngineConfig, llm, suite,
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
    _, probe, _ = _serve_suite(_baseline_config(config), llm, suite,
                               ignore_eos)
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


def _quant_accuracy_speed(config: EngineConfig, llm, report, workloads,
                          completions, args: argparse.Namespace, arrivals):
    """Serve the identical suite on a full-precision twin; compare.

    The twin shares every serving knob but runs the fp32 datapath
    (``quant="fp32"``, its own weights — quantisation changes *values*,
    unlike scheduling features, so token identity is not expected).  The
    comparison reports speed (tokens/s side by side, HBM bytes streamed,
    bytes saved) against accuracy (teacher-forced greedy agreement and
    logit drift, perplexity on the fp32 twin's own greedy continuations,
    free-decode prefix agreement).  Returns ``(comparison_dict,
    failures)`` where failures gate ``--check``.
    """
    import dataclasses as _dc

    from .llama.evaluate import divergence_report, perplexity
    from .llama.model import LlamaModel

    fp32_config = _dc.replace(config, quant="fp32", quant_kv=False,
                              fp32_logits=False)
    fp32_llm = fp32_config.build_llm()
    _, fp32_report, fp32_completions = _serve_suite(
        fp32_config, fp32_llm, workloads, args.ignore_eos, arrivals=arrivals)

    # Teacher-forced comparison on the fp32 twin's greedy continuations:
    # both models consume the same ground-truth token each position, so
    # one early disagreement cannot cascade the way free decoding does.
    quant_model = LlamaModel(llm.accelerator.functional_checkpoint())
    fp32_model = LlamaModel(fp32_llm.accelerator.functional_checkpoint())
    sequences = []
    for workload, completion in list(zip(workloads, fp32_completions))[:4]:
        tokens = (fp32_llm.tokenizer.encode(workload.prompt, bos=True,
                                            eos=False)
                  + list(completion.choices[0].token_ids))
        if len(tokens) >= 2:
            sequences.append(tokens[:48])
    drift = divergence_report(quant_model, fp32_model, sequences)

    # Free-decode prefix agreement: how far each served stream tracks
    # the fp32 twin before the first divergence (cascades after that).
    prefixes = []
    for quant_c, fp32_c in zip(completions, fp32_completions):
        quant_t = list(quant_c.choices[0].token_ids)
        fp32_t = list(fp32_c.choices[0].token_ids)
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
        "quant_speedup": quant_tps / fp32_tps if fp32_tps > 0 else 0.0,
        "fp32_hbm_bytes": fp32_report.counters.hbm_bytes,
        "quant_hbm_bytes": report.counters.hbm_bytes,
        "quant_bytes_saved": report.quant_bytes_saved,
        "quant_saved_fraction": report.quant_saved_fraction,
        "dequant_overhead_fraction": report.dequant_overhead_fraction,
        "teacher_forced": drift.as_dict(),
        "greedy_prefix_agreement": (sum(prefixes) / len(prefixes)
                                    if prefixes else 0.0),
        "perplexity_quant": perplexity(quant_model, sequences),
        "perplexity_fp32": perplexity(fp32_model, sequences),
    }
    failures = []
    if args.check:
        if drift.token_agreement < args.min_agreement:
            failures.append(
                f"teacher-forced token agreement "
                f"{drift.token_agreement:.3f} below the required "
                f"{args.min_agreement:.2f}")
        if report.quant_bytes_saved <= 0:
            failures.append("quantised run reported no HBM bytes saved")
    return comparison, failures


def _print_quant_comparison(comparison: dict) -> None:
    """Human-readable accuracy-vs-speed block for --quant runs."""
    teacher = comparison["teacher_forced"]
    print(f"quant mode             {comparison['quant']}")
    print(f"fp32 throughput        "
          f"{comparison['fp32_throughput_tokens_per_second']:.1f} tokens/s")
    print(f"quant throughput       "
          f"{comparison['quant_throughput_tokens_per_second']:.1f} tokens/s "
          f"({comparison['quant_speedup']:.2f}x vs fp32)")
    print(f"hbm bytes streamed     {comparison['quant_hbm_bytes']} vs "
          f"{comparison['fp32_hbm_bytes']} fp32 "
          f"({comparison['quant_bytes_saved']} saved, "
          f"{comparison['quant_saved_fraction']:.1%} of the fp32-equivalent "
          "stream)")
    print(f"dequant overhead       "
          f"{comparison['dequant_overhead_fraction']:.1%} of SFU flops")
    print(f"teacher-forced         {teacher['token_agreement']:.1%} greedy "
          f"agreement over {teacher['n_positions']} positions, max logit "
          f"drift {teacher['max_logit_drift']:.3g}")
    print(f"free-decode prefix     "
          f"{comparison['greedy_prefix_agreement']:.1%} mean agreement "
          "before first divergence")
    print(f"perplexity             {comparison['perplexity_quant']:.3f} "
          f"quant vs {comparison['perplexity_fp32']:.3f} fp32")


def _baseline_config(config: EngineConfig) -> EngineConfig:
    """The plain twin a served run is checked/compared against.

    Same model, KV memory and backend — but no speculation, monolithic
    prefill and strict-FIFO admission, so it isolates exactly the
    features under test.  Greedy token streams must be identical.
    """
    import dataclasses as _dc
    return _dc.replace(config, speculative=None, chunked_prefill=False,
                       prefill_chunk_tokens=None, policy="fifo")


def _serve_bench_suite(args: argparse.Namespace):
    """The workload suite the serve-bench flags select."""
    if args.shared_prefix:
        return shared_prefix_suite(n_prompts=args.requests,
                                   max_new_tokens=args.tokens,
                                   seed=args.seed,
                                   n_groups=getattr(args, "prefix_groups", 1))
    if args.repetitive:
        return repetitive_suite(n_prompts=args.requests,
                                max_new_tokens=args.tokens,
                                seed=args.seed,
                                adversarial=args.adversarial)
    if args.mixed:
        return mixed_chat_suite(n_chats=args.requests,
                                n_documents=max(1, args.requests // 3),
                                chat_new_tokens=args.tokens,
                                seed=args.seed)
    return default_suite(n_prompts=args.requests,
                         max_new_tokens=args.tokens, seed=args.seed)


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    if args.bench_out:
        return _cmd_bench_matrix(args)
    if args.replicas != 1 or args.disaggregate or args.autoscale:
        return _cmd_cluster_bench(args)
    config = _engine_config(args)
    llm = config.build_llm()
    suite = _serve_bench_suite(args)

    workloads = list(suite)
    arrivals = None
    if args.mixed and args.arrival_rate is None:
        workloads, arrivals = _staggered_mixed_arrivals(
            config, llm, suite, args.ignore_eos)

    # Sequential baseline: one SpeedLLM.generate call per request.
    sequential = [llm.generate(w.prompt, max_new_tokens=w.max_new_tokens)
                  for w in workloads]
    seq_seconds = sum(out.metrics.total_seconds for out in sequential)
    seq_tokens = sum(len(out.generated_tokens) for out in sequential)
    seq_throughput = seq_tokens / seq_seconds if seq_seconds > 0 else 0.0

    # The served run goes through the frontend API end to end: one
    # declarative EngineConfig assembles scheduler + KV pool + backend,
    # and requests enter through the OpenAI-style completions layer.
    # Only this featured run carries the observability sinks — the
    # baseline/probe twins below stay untraced.
    tracer, registry = _obs_sinks(args)
    engine, report, completions = _serve_suite(
        config, llm, workloads, args.ignore_eos, arrivals=arrivals,
        tracer=tracer, metrics=registry)

    # When any feature under test is on (speculation, chunked prefill, a
    # non-FIFO policy), also serve the identical suite on the plain twin:
    # its serving throughput is the honest baseline the feature speedup
    # is measured against (the sequential baseline already includes the
    # continuous-batching win), and --check asserts the features never
    # changed what any request generated.
    plain_config = _baseline_config(config)
    plain_report = None
    check_failures = 0
    if plain_config != config or args.check:
        _, plain_report, plain_completions = _serve_suite(
            plain_config, llm, workloads, args.ignore_eos, arrivals=arrivals)
        if args.check:
            # Both runs serve the suite in submission order, so compare
            # request by request (duplicate prompts must not collapse).
            for workload, feat_c, plain_c in zip(
                workloads, completions, plain_completions
            ):
                if (list(feat_c.choices[0].token_ids)
                        != list(plain_c.choices[0].token_ids)):
                    check_failures += 1
                    print(f"MISMATCH on {workload.prompt[:40]!r}...: "
                          "featured and baseline greedy token streams "
                          "differ", file=sys.stderr)

    # With --quant on the main config, also serve the identical suite on
    # the full-precision twin and report accuracy vs speed.
    quant_comparison = None
    if config.quant_config() is not None:
        quant_comparison, quant_failures = _quant_accuracy_speed(
            config, llm, report, workloads, completions, args, arrivals)
        for failure in quant_failures:
            check_failures += 1
            print(f"QUANT CHECK FAIL: {failure}", file=sys.stderr)

    aggregate = report.as_dict()
    speedup = (report.throughput_tokens_per_second / seq_throughput
               if seq_throughput > 0 else 0.0)
    if quant_comparison is not None:
        aggregate["quant_comparison"] = quant_comparison
    aggregate["sequential_throughput_tokens_per_second"] = seq_throughput
    aggregate["speedup"] = speedup
    aggregate["backend"] = engine.backend.describe()
    if plain_report is not None:
        plain_tps = plain_report.throughput_tokens_per_second
        aggregate["plain_throughput_tokens_per_second"] = plain_tps
        if config.speculative is not None:
            aggregate["speculative_speedup"] = (
                report.throughput_tokens_per_second / plain_tps
                if plain_tps > 0 else 0.0)
        baseline_itl_p95 = plain_report.itl_summary().p95
        featured_itl_p95 = report.itl_summary().p95
        aggregate["baseline_itl_p95_ms"] = baseline_itl_p95 * 1e3
        aggregate["itl_p95_reduction"] = (
            1.0 - featured_itl_p95 / baseline_itl_p95
            if baseline_itl_p95 > 0 else 0.0)
        if args.check:
            aggregate["token_identity_check"] = (
                "pass" if check_failures == 0 else "fail")
    payload = {
        "requests": report.request_rows(),
        "completions": [c.as_dict() for c in completions],
        "aggregate": aggregate,
    }
    check_failures += _write_obs_outputs(
        args, tracer, registry, report,
        meta={"command": "serve-bench", "model": args.model,
              "n_requests": len(workloads)})
    if args.json == "-":
        import json as _json
        print(_json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 1 if check_failures else 0

    print(format_table(report.request_rows()))
    print()
    print(f"requests served        {report.n_requests} "
          f"({report.total_generated_tokens} tokens in {report.n_steps} steps)")
    print(f"mean batch occupancy   {report.mean_batch_tokens:.1f} tokens/step")
    print(f"latency p50 / p95      {aggregate['latency_p50_ms']:.3f} / "
          f"{aggregate['latency_p95_ms']:.3f} ms")
    print(f"ttft p50 / p95         {aggregate['ttft_p50_ms']:.3f} / "
          f"{aggregate['ttft_p95_ms']:.3f} ms")
    print(f"itl p50 / p95 / p99    {aggregate['itl_p50_ms']:.3f} / "
          f"{aggregate['itl_p95_ms']:.3f} / "
          f"{aggregate['itl_p99_ms']:.3f} ms")
    print(f"mean queue wait        {aggregate['mean_queue_wait_ms']:.3f} ms")
    if report.policy != "fifo" or report.chunked_prefill:
        chunk = ("chunked prefill "
                 f"({config.scheduler_config().step_prefill_budget} "
                 "tokens/step)" if report.chunked_prefill
                 else "monolithic prefill")
        print(f"scheduling             {report.policy} policy, {chunk}")
    if len(report.tiers) > 1:
        print()
        print(format_table([
            {"tier": tier, **{k: round(v, 3) if isinstance(v, float) else v
                              for k, v in row.items()}}
            for tier, row in report.tier_breakdown().items()
        ], columns=["tier", "n_requests", "ttft_p50_ms", "ttft_p95_ms",
                    "itl_p50_ms", "itl_p95_ms", "itl_p99_ms",
                    "mean_queue_wait_ms"]))
        print()
    if report.n_shards > 1:
        print(f"tensor parallel        {report.n_shards} shards")
        print(f"per-step compute       "
              f"{aggregate['mean_step_compute_ms']:.4f} ms "
              f"(max over shards)")
        print(f"interconnect fraction  {report.interconnect_fraction:.1%} "
              f"of step time")
        print(f"mean shard utilization "
              f"{sum(report.shard_utilization) / report.n_shards:.1%}")
    if report.paged:
        print(f"peak concurrency       {report.peak_running} running")
        print(f"prefix-hit rate        {report.prefix_hit_rate:.1%} "
              f"({report.prefix_hit_tokens} of "
              f"{report.total_prefill_tokens} prefill tokens)")
        print(f"preemptions            {report.n_preemptions}")
        print(f"mean KV utilization    {report.mean_kv_utilization:.1%}")
    if report.speculative:
        print(f"speculative method     {report.spec_method} "
              f"(K={config.speculative.num_draft_tokens})")
        print(f"draft acceptance       {report.acceptance_rate:.1%} "
              f"({report.spec_accepted_tokens} of "
              f"{report.spec_draft_tokens} draft tokens)")
        print(f"tokens per decode turn {report.tokens_per_decode_step:.2f}")
    if plain_report is not None:
        print(f"baseline throughput    "
              f"{aggregate['plain_throughput_tokens_per_second']:.1f} "
              f"tokens/s (no spec, unchunked, fifo)")
        if "speculative_speedup" in aggregate:
            print(f"speculative speedup    "
                  f"{aggregate['speculative_speedup']:.2f}x")
        print(f"baseline itl p95       "
              f"{aggregate['baseline_itl_p95_ms']:.3f} ms "
              f"({aggregate['itl_p95_reduction']:+.1%} reduction)")
    if quant_comparison is not None:
        _print_quant_comparison(quant_comparison)
    if args.check:
        verdict = ("PASS" if check_failures == 0
                   else f"{check_failures} MISMATCHES")
        print(f"token identity check   {verdict}")
    if args.compile_stats:
        _print_compile_stats(engine.backend.compiler.stats())
    print(f"sequential throughput  {seq_throughput:.1f} tokens/s")
    print(f"batched throughput     {report.throughput_tokens_per_second:.1f} tokens/s")
    print(f"continuous-batching speedup: {speedup:.2f}x")
    if args.json:
        write_json(args.json, payload)
        print(f"results written to {args.json}")
    return 1 if check_failures else 0


def _print_compile_stats(stats) -> None:
    """Human-readable compilation-pipeline breakdown (--compile-stats)."""
    phase_seconds = stats.get("phase_seconds", {})
    total = stats.get("compile_seconds", 0.0)
    phases = "  ".join(f"{name} {seconds * 1e3:.1f}ms"
                       for name, seconds in phase_seconds.items())
    print(f"compile phases         {phases} (total {total * 1e3:.1f}ms)")
    cache = stats.get("cache", {})
    print(f"compile cache          {cache.get('hits', 0)} hits / "
          f"{cache.get('misses', 0)} misses "
          f"({cache.get('hit_rate', 0.0):.1%} hit rate, "
          f"{cache.get('evictions', 0)} evictions, "
          f"{cache.get('entries', 0)} resident)")
    autotune = stats.get("autotune")
    if autotune:
        print(f"tile autotuner         {autotune.get('searches', 0)} searches "
              f"over {autotune.get('search_space', 0)} plans "
              f"({autotune.get('candidates_scored', 0)} candidates scored), "
              f"win ratio {autotune.get('win_ratio', 0.0):.1%}, "
              f"{autotune.get('cycles_saved', 0)} cycles saved")


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    """Serve the suite through a replica cluster; report pooled metrics.

    ``--check`` re-serves the identical suite on a *single* engine built
    from the same :class:`~repro.api.EngineConfig` and fails unless every
    request's token stream is byte-identical — routing, disaggregated KV
    handoff and autoscaling decide where and when a request runs, never
    what it generates.
    """
    engine_config = _engine_config(args)
    cluster_config = _cluster_config(args, engine_config)
    llm = engine_config.build_llm()
    workloads = list(_serve_bench_suite(args))
    arrivals = engine_config.arrival_times(len(workloads)) or None
    params = SamplingParams(ignore_eos=args.ignore_eos)

    tracer, registry = _obs_sinks(args)
    cluster = cluster_config.build_cluster(llm=llm, tracer=tracer,
                                           metrics=registry)
    report = cluster.serve(workloads, params, arrivals=arrivals)
    streams = cluster.streams()

    check_failures = 0
    if args.check:
        single = engine_config.build_engine(llm=llm)
        import dataclasses as _dc
        handles = [
            single.submit(
                workload.prompt,
                _dc.replace(params, max_tokens=workload.max_new_tokens,
                            priority=getattr(workload, "priority", 0)),
                arrival_time=arrivals[i] if arrivals else None,
            )
            for i, workload in enumerate(workloads)
        ]
        single.run()
        for workload, cluster_tokens, handle in zip(workloads, streams,
                                                    handles):
            if list(cluster_tokens) != list(handle.request.generated_tokens):
                check_failures += 1
                print(f"MISMATCH on {workload.prompt[:40]!r}...: cluster "
                      "and single-engine token streams differ",
                      file=sys.stderr)

    payload = report.as_dict()
    payload["token_identity_check"] = (
        ("pass" if check_failures == 0 else "fail") if args.check else None)
    check_failures += _write_obs_outputs(
        args, tracer, registry, report.pooled,
        meta={"command": "serve-bench", "model": args.model,
              "n_requests": len(workloads),
              "n_replicas": cluster_config.n_replicas,
              "disaggregated": cluster_config.disaggregate})
    if args.json == "-":
        import json as _json
        print(_json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 1 if check_failures else 0

    print(format_table([s.as_dict() for s in report.replicas],
                       columns=["replica", "pool", "n_requests", "n_steps",
                                "generated_tokens", "ttft_p50_ms",
                                "itl_p50_ms", "prefix_hit_rate"]))
    print()
    print(f"replicas               {report.n_replicas} "
          f"(route={report.route}"
          f"{', disaggregated' if report.disaggregated else ''}"
          f"{', autoscaled' if report.autoscaled else ''})")
    print(f"requests served        {report.pooled.n_requests} "
          f"({report.pooled.total_generated_tokens} tokens)")
    print(f"routing decisions      {report.routing.get('decisions')}")
    if "affinity_hits" in report.routing:
        print(f"affinity hits/spills   {report.routing['affinity_hits']} / "
              f"{report.routing['affinity_spills']}")
    if report.pooled.paged:
        print(f"pooled prefix-hit rate {report.prefix_hit_rate:.1%}")
    ttft = report.pooled.ttft_summary()
    itl = report.pooled.itl_summary()
    print(f"pooled ttft p50/p95/p99  {ttft.p50 * 1e3:.3f} / "
          f"{ttft.p95 * 1e3:.3f} / {ttft.p99 * 1e3:.3f} ms")
    print(f"pooled itl p50/p95/p99   {itl.p50 * 1e3:.3f} / "
          f"{itl.p95 * 1e3:.3f} / {itl.p99 * 1e3:.3f} ms")
    if report.disaggregated:
        print(f"kv handoffs            {report.kv_transfers} "
              f"({report.kv_transfer_bytes} bytes, "
              f"{report.kv_transfer_seconds * 1e3:.3f} ms on the wire, "
              f"{report.kv_transfer_saved_positions} positions served "
              "from decode-side prefix cache)")
    if report.autoscaled:
        for event in report.autoscale_events:
            print(f"  autoscale {event['action']:<7s} replica "
                  f"{event['replica']} at t={event['time'] * 1e3:.3f} ms "
                  f"(queued={event['queued']})")
    if args.check:
        verdict = ("PASS" if check_failures == 0
                   else f"{check_failures} MISMATCHES")
        print(f"token identity check   {verdict}")
    print(f"cluster makespan       {report.makespan_seconds * 1e3:.3f} ms")
    print(f"pooled throughput      "
          f"{report.throughput_tokens_per_second:.1f} tokens/s")
    if args.json:
        write_json(args.json, payload)
        print(f"results written to {args.json}")
    return 1 if check_failures else 0


#: The serving-config matrix ``serve-bench --bench-out`` sweeps on the
#: mixed chat/document workload.  Each entry overrides the CLI-derived
#: base config; the first is the plain baseline everything else is read
#: against.
_BENCH_MATRIX = (
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
_QUANT_BENCH_ROWS = (
    ("quant-fp32", {"quant": "fp32", "hbm_channels": 2}),
    ("quant-int8", {"quant": "int8", "quant_kv": True, "hbm_channels": 2}),
    ("quant-int4", {"quant": "int4", "quant_kv": True, "hbm_channels": 2}),
)

#: Version tag of the benchmark report schema ``--bench-out`` writes.
BENCH_SCHEMA = "BENCH_v1"


def _cluster_bench_matrix(base: EngineConfig):
    """The cluster rows the benchmark report carries beside the matrix.

    Two fixed scenarios, sized so their headline claims are meaningful:

    * **scaling** — the mixed chat/document workload on one replica vs
      four least-loaded replicas (data-parallel scale-out; four replicas
      must clearly beat one);
    * **affinity** — a multi-tenant shared-prefix workload (8 preamble
      groups) on four replicas under round-robin vs sticky prefix
      affinity; a small per-replica admission window sequences each
      group's members so co-location turns into measured prefix hits.

    Sizes are fixed rather than CLI-derived so a committed BENCH_v1.json
    regenerates bit-for-bit regardless of the smoke-test's ``--requests``.
    """
    import dataclasses as _dc
    scaling_engine = _dc.replace(
        base, paged=True, max_batch_tokens=16, max_running=16,
        chunked_prefill=False, prefill_chunk_tokens=None, policy="fifo",
        speculative=None, arrival_policy="immediate", arrival_rate=None,
        burst_rate=None)
    affinity_engine = _dc.replace(scaling_engine, max_running=2)
    scaling_suite = list(mixed_chat_suite(n_chats=48, n_documents=16,
                                          seed=23))
    affinity_suite = list(shared_prefix_suite(
        n_prompts=32, n_groups=8, system_words=96, tail_words=3,
        max_new_tokens=16, seed=13))
    params = SamplingParams(ignore_eos=True)
    return (
        ("cluster-1-least-loaded",
         ClusterConfig(engine=scaling_engine, n_replicas=1,
                       route="least-loaded"),
         scaling_suite, params),
        ("cluster-4-least-loaded",
         ClusterConfig(engine=scaling_engine, n_replicas=4,
                       route="least-loaded"),
         scaling_suite, params),
        ("cluster-4-rr-prefix",
         ClusterConfig(engine=affinity_engine, n_replicas=4, route="rr"),
         affinity_suite, params),
        ("cluster-4-affinity-prefix",
         ClusterConfig(engine=affinity_engine, n_replicas=4,
                       route="affinity"),
         affinity_suite, params),
    )


def _cmd_bench_matrix(args: argparse.Namespace) -> int:
    """Serve the mixed workload under every matrix config; write JSON.

    The report is versioned (:data:`BENCH_SCHEMA`) and fully simulated —
    latencies are engine-clock seconds — so the same command on the same
    seed reproduces it bit-for-bit, and CI can regenerate and upload it.
    """
    import dataclasses as _dc

    # The base config is the plain baseline; feature flags the user set
    # (--chunked-prefill, --policy, --speculative) are irrelevant here —
    # the matrix itself decides which features each entry turns on.
    plain_args = argparse.Namespace(**vars(args))
    plain_args.chunked_prefill = False
    plain_args.prefill_chunk_tokens = None
    plain_args.policy = "fifo"
    plain_args.speculative = None
    base = _engine_config(plain_args)
    llm = base.build_llm()
    suite = mixed_chat_suite(n_chats=args.requests,
                             n_documents=max(1, args.requests // 3),
                             chat_new_tokens=args.tokens,
                             document_new_tokens=max(4, args.tokens // 4),
                             seed=args.seed)
    # One arrival schedule, shared by every config, with document
    # prefills landing mid-chat-decode (the regime the matrix compares).
    workloads, arrivals = _staggered_mixed_arrivals(
        base, llm, suite, args.ignore_eos)
    configs = {}
    for name, overrides in _BENCH_MATRIX:
        if overrides.get("chunked_prefill") and args.prefill_chunk_tokens:
            overrides = {**overrides,
                         "prefill_chunk_tokens": args.prefill_chunk_tokens}
        config = _dc.replace(base, **overrides)
        _, report, _ = _serve_suite(config, llm, workloads, args.ignore_eos,
                                    arrivals=arrivals)
        entry = report.as_dict()
        configs[name] = entry
        print(f"{name:24s} {report.throughput_tokens_per_second:8.1f} tok/s"
              f"  itl p95 {entry['itl_p95_ms']:.3f} ms"
              f"  kv util {report.mean_kv_utilization:.1%}"
              f"  accept {report.acceptance_rate:.1%}")
    # Quantisation rows: precision sweep on its own stacks (quantised
    # weights differ by value, so the shared llm cannot be reused).
    fp32_tps = None
    for name, overrides in _QUANT_BENCH_ROWS:
        quant_config = _dc.replace(base, **overrides)
        quant_llm = quant_config.build_llm()
        _, quant_report, _ = _serve_suite(
            quant_config, quant_llm, workloads, args.ignore_eos,
            arrivals=arrivals)
        entry = quant_report.as_dict()
        configs[name] = entry
        tps = quant_report.throughput_tokens_per_second
        if name == "quant-fp32":
            fp32_tps = tps
        speedup = (f"  vs fp32 {tps / fp32_tps:.2f}x"
                   if fp32_tps and name != "quant-fp32" else "")
        print(f"{name:24s} {tps:8.1f} tok/s"
              f"  hbm bytes {quant_report.counters.hbm_bytes}"
              f"  saved {quant_report.quant_bytes_saved}" + speedup)
    for name, cluster_config, suite_rows, cluster_params in \
            _cluster_bench_matrix(base):
        cluster = cluster_config.build_cluster(llm=llm)
        creport = cluster.serve(suite_rows, cluster_params)
        entry = creport.as_dict()
        configs[name] = entry
        hits = entry["cluster"]["routing"].get("affinity_hits")
        print(f"{name:24s} "
              f"{creport.throughput_tokens_per_second:8.1f} tok/s"
              f"  replicas {creport.n_replicas}"
              f"  prefix hits {creport.prefix_hit_rate:.1%}"
              + (f"  affinity hits {hits}" if hits is not None else ""))
    # Compilation rows: fixed vs autotuned tiling on the long-context
    # suite, served single-stream.  Sizes derive from the model's context
    # window (not the CLI's --requests/--tokens) so the committed report
    # regenerates identically regardless of the smoke-test's flags.
    cap = llm.model_config.max_seq_len
    lc_tokens = min(96, max(8, cap // 2))
    lc_words = min(48, max(4, cap - lc_tokens - 16))
    compile_payload, _ = _run_compile_bench(
        model=args.model, variant=args.variant, requests=4,
        prompt_words=lc_words, tokens=lc_tokens, seed=37, ctx_bucket=32)
    for side in ("fixed", "autotuned"):
        configs[f"long-context-{side}"] = compile_payload.pop(side)
        tps = configs[f"long-context-{side}"][
            "throughput_tokens_per_second"]
        print(f"{'long-context-' + side:24s} {tps:8.1f} tok/s"
              + ("" if side == "fixed" else
                 f"  autotuned speedup {compile_payload['speedup']:.2f}x"
                 f"  steady-state hit rate "
                 f"{compile_payload['steady_state_hit_rate']:.1%}"))
    payload = {
        "schema": BENCH_SCHEMA,
        "model": llm.model_config.name,
        "suite": suite.name,
        "n_requests": len(suite),
        "seed": args.seed,
        "max_batch_tokens": base.max_batch_tokens,
        "configs": configs,
        "compile": compile_payload,
    }
    write_json(args.bench_out, _simulated_only(payload))
    print(f"benchmark report ({BENCH_SCHEMA}) written to {args.bench_out}")
    return 0


def _simulated_only(value):
    """``value`` without its host wall-clock sections, at any depth.

    Reports keep every host-clock value under one key — ``"host"``
    (``"wall"`` in COMPILE_BENCH_v1) — so what is left is simulated and
    regenerates bit-for-bit.
    """
    if isinstance(value, dict):
        return {key: _simulated_only(item) for key, item in value.items()
                if key not in ("host", "wall")}
    if isinstance(value, list):
        return [_simulated_only(item) for item in value]
    return value


def _run_compile_bench(model: str, variant: str, requests: int,
                       prompt_words: int, tokens: int, seed: int,
                       ctx_bucket: int, quant=None, quant_kv: bool = False,
                       quant_group: int = 64):
    """Fixed vs autotuned tiling on the long-context suite, plus warm reuse.

    Serves the suite single-stream (``max_running=1``) so the comparison
    isolates per-step program quality from batching effects — folding
    amortises the MPE fill/drain latency exactly where batch merging
    cannot.  Both sides use the same context bucketing, so the *only*
    difference between them is the tiling plan; greedy token streams must
    be identical.  The autotuned engine is then re-served warm (same
    model/accelerator stack, hence a hot compile cache) to measure the
    wall-clock stepping speedup cache reuse buys and the steady-state hit
    rate.  Returns ``(payload, n_mismatches)``.
    """
    import dataclasses as _dc
    import time as _time
    suite = long_context_suite(n_prompts=requests, prompt_words=prompt_words,
                               max_new_tokens=tokens, seed=seed)
    base = EngineConfig(model=model, variant=variant, seed=seed,
                        max_running=1, ctx_bucket=ctx_bucket,
                        quant=quant, quant_kv=quant_kv,
                        quant_group=quant_group)

    def serve(config: EngineConfig, llm):
        engine = config.build_engine(llm=llm)
        service = CompletionService(engine)
        pending = [
            service.submit(CompletionRequest(prompt=w.prompt,
                                             max_tokens=w.max_new_tokens,
                                             ignore_eos=True))
            for w in suite
        ]
        start = _time.perf_counter()
        report = engine.run()
        wall = _time.perf_counter() - start
        streams = [list(p.response().choices[0].token_ids) for p in pending]
        return report, engine.backend.compiler.stats(), wall, streams

    fixed_config = base
    auto_config = _dc.replace(base, autotune=True)
    fixed_report, _, fixed_wall, fixed_streams = serve(
        fixed_config, fixed_config.build_llm())
    auto_llm = auto_config.build_llm()
    auto_report, auto_stats, cold_wall, auto_streams = serve(
        auto_config, auto_llm)
    # Warm re-serve: a fresh engine over the same stack starts with every
    # steady-state program already cached.
    warm_report, _, warm_wall, warm_streams = serve(auto_config, auto_llm)

    mismatches = sum(
        1 for fixed, cold, warm in zip(fixed_streams, auto_streams,
                                       warm_streams)
        if fixed != cold or fixed != warm
    )
    fixed_tps = fixed_report.throughput_tokens_per_second
    auto_tps = auto_report.throughput_tokens_per_second
    autotune = dict(auto_stats.get("autotune", {}))
    # The search's wall-clock belongs with the other host-clock values.
    autotune_seconds = autotune.pop("seconds", 0.0)
    payload = {
        "schema": "COMPILE_BENCH_v1",
        "model": model,
        "variant": variant,
        "suite": suite.name,
        "n_requests": len(suite),
        "prompt_words": prompt_words,
        "max_new_tokens": tokens,
        "seed": seed,
        "ctx_bucket": ctx_bucket,
        "quant": (base.quant_config().label
                  if base.quant_config() is not None else quant),
        "fixed": fixed_report.as_dict(),
        "autotuned": auto_report.as_dict(),
        "autotune": autotune,
        "speedup": auto_tps / fixed_tps if fixed_tps > 0 else 0.0,
        "cold_hit_rate": auto_report.compile_cache_hit_rate,
        "steady_state_hit_rate": warm_report.compile_cache_hit_rate,
        "token_identity": "pass" if mismatches == 0 else "fail",
        "wall": {
            "fixed_seconds": fixed_wall,
            "cold_seconds": cold_wall,
            "warm_seconds": warm_wall,
            "warm_vs_cold_speedup": (cold_wall / warm_wall
                                     if warm_wall > 0 else 0.0),
            "autotune_seconds": autotune_seconds,
        },
    }
    return payload, mismatches


def _cmd_compile_bench(args: argparse.Namespace) -> int:
    payload, mismatches = _run_compile_bench(
        model=args.model, variant=args.variant, requests=args.requests,
        prompt_words=args.prompt_words, tokens=args.tokens, seed=args.seed,
        ctx_bucket=args.ctx_bucket, quant=args.quant,
        quant_kv=args.quant_kv, quant_group=args.quant_group)
    failures = []
    if mismatches:
        failures.append(f"{mismatches} request token streams drifted "
                        "between fixed and autotuned tiling")
    if payload["speedup"] < args.min_speedup:
        failures.append(f"autotuned speedup {payload['speedup']:.4f}x below "
                        f"the required {args.min_speedup:.2f}x")
    if payload["steady_state_hit_rate"] < args.min_hit_rate:
        failures.append(
            f"steady-state hit rate {payload['steady_state_hit_rate']:.1%} "
            f"below the required {args.min_hit_rate:.0%}")
    payload["verdict"] = "pass" if not failures else "fail"

    if args.json == "-":
        import json as _json
        print(_json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        fixed, auto = payload["fixed"], payload["autotuned"]
        wall = payload["wall"]
        print(f"suite                  {payload['suite']} "
              f"({payload['n_requests']} requests x "
              f"{payload['max_new_tokens']} tokens, single-stream, "
              f"ctx bucket {payload['ctx_bucket']})")
        if payload.get("quant"):
            print(f"quantisation           {payload['quant']}")
        print(f"fixed tiling           "
              f"{fixed['throughput_tokens_per_second']:.1f} tokens/s "
              f"({fixed['n_steps']} steps)")
        print(f"autotuned tiling       "
              f"{auto['throughput_tokens_per_second']:.1f} tokens/s "
              f"({auto['n_steps']} steps)")
        print(f"autotuned speedup      {payload['speedup']:.4f}x "
              f"(required >= {args.min_speedup:.2f}x)")
        autotune = payload["autotune"]
        print(f"autotune searches      {autotune.get('searches', 0)} over "
              f"{autotune.get('search_space', 0)} plans, win ratio "
              f"{autotune.get('win_ratio', 0.0):.1%}")
        print(f"cache hit rate         cold {payload['cold_hit_rate']:.1%}, "
              f"steady-state {payload['steady_state_hit_rate']:.1%} "
              f"(required >= {args.min_hit_rate:.0%})")
        print(f"stepping wall clock    cold {wall['cold_seconds']:.2f}s, "
              f"warm {wall['warm_seconds']:.2f}s "
              f"({wall['warm_vs_cold_speedup']:.2f}x from cache reuse)")
        print(f"token identity         "
              f"{'PASS' if mismatches == 0 else 'FAIL'}")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if args.json:
            write_json(args.json, payload)
            print(f"results written to {args.json}")
    return 1 if failures else 0


#: Demo prompts of the serve-api walkthrough (used when --prompt absent).
_SERVE_API_PROMPTS = (
    "Once upon a time",
    "The little dog was happy",
    "Lily and Tom went to the park",
)


def _cmd_serve_api(args: argparse.Namespace) -> int:
    config = _engine_config(args)
    llm = config.build_llm()
    engine = config.build_engine(llm=llm)
    service = CompletionService(engine)
    prompts = args.prompt or list(_SERVE_API_PROMPTS)
    quiet = args.json == "-"

    def request_for(i: int, prompt: str) -> CompletionRequest:
        return CompletionRequest(
            prompt=prompt,
            max_tokens=args.max_tokens,
            temperature=args.temperature,
            top_p=args.top_p,
            seed=args.seed + i,
            stop=tuple(args.stop or ()),
            logprobs=args.logprobs,
            stream=not args.no_stream,
        )

    records = []
    for i, prompt in enumerate(prompts):
        request = request_for(i, prompt)
        if args.no_stream:
            response = service.create(request)
            record = {
                "id": response.id,
                "prompt": prompt,
                "text": response.text,
                "finish_reason": response.choices[0].finish_reason,
                "usage": response.usage.as_dict(),
                "streamed": False,
            }
            if not quiet:
                print(f"[{response.id}] {prompt!r}")
                print(f"  {response.text!r}  "
                      f"(finish_reason={response.choices[0].finish_reason})")
        else:
            chunks = list(service.stream(request))
            text = "".join(chunk.text for chunk in chunks)
            token_ids = [t for chunk in chunks
                         for t in chunk.choices[0].token_ids]
            record = {
                "id": chunks[-1].id,
                "prompt": prompt,
                "text": text,
                "token_ids": token_ids,
                "finish_reason": chunks[-1].finish_reason,
                "n_chunks": len(chunks),
                "streamed": True,
            }
            if not quiet:
                print(f"[{chunks[-1].id}] {prompt!r}")
                print("  ", end="")
                for chunk in chunks:
                    print(chunk.text, end="", flush=True)
                print(f"  (finish_reason={chunks[-1].finish_reason}, "
                      f"{len(chunks)} chunks)")
        records.append(record)

    failures = 0
    if args.check:
        # Re-run every completion non-streamed on a fresh engine built
        # from the same config (same llm, so identical weights/tokenizer)
        # and require the reassembled stream to match it exactly.
        import dataclasses
        check_engine = config.build_engine(llm=llm)
        check_service = CompletionService(check_engine)
        for i, (prompt, record) in enumerate(zip(prompts, records)):
            response = check_service.create(
                dataclasses.replace(request_for(i, prompt), stream=False))
            match = response.text == record["text"]
            if record.get("token_ids") is not None:
                match = match and (
                    list(response.choices[0].token_ids) == record["token_ids"]
                )
            record["batch_text"] = response.text
            record["match"] = match
            if not match:
                failures += 1
                print(f"MISMATCH on {prompt!r}:\n"
                      f"  stream: {record['text']!r}\n"
                      f"  batch:  {response.text!r}", file=sys.stderr)
        if not quiet:
            verdict = "OK" if failures == 0 else f"{failures} MISMATCHES"
            print(f"\nstream-vs-batch check: {verdict} "
                  f"({len(prompts)} completions)")

    payload = {
        "model": llm.model_config.name,
        "backend": engine.backend.describe(),
        "completions": records,
        "aggregate": engine.report().as_dict(),
    }
    if args.json == "-":
        import json as _json
        print(_json.dumps(payload, indent=2, sort_keys=True, default=str))
    elif args.json:
        write_json(args.json, payload)
        print(f"results written to {args.json}")
    return 1 if failures else 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    """Convert a checkpoint to a ``.slq`` quantised sidecar file.

    The sidecar stores packed integer payloads plus per-group scales —
    never materialised fp32 — and is verified by reloading it and
    checking the byte accounting round-trips exactly.
    """
    from .llama.checkpoint import load_checkpoint, synthesize_weights
    from .quant import (load_quantized, quantize_checkpoint, resolve_quant,
                        save_quantized)

    if args.checkpoint:
        checkpoint = load_checkpoint(args.checkpoint)
    else:
        checkpoint = synthesize_weights(preset(args.model), seed=args.seed)
    quant = resolve_quant(args.mode, group_size=args.quant_group,
                          quant_kv=args.quant_kv,
                          fp32_logits=args.fp32_logits)
    quantized = quantize_checkpoint(checkpoint, quant)
    out = args.out or f"{checkpoint.config.name}-{args.mode}.slq"
    path = save_quantized(quantized, out)
    reloaded = load_quantized(path)
    roundtrip = (reloaded.nbytes == quantized.nbytes
                 and reloaded.quant.signature() == quant.signature()
                 and len(reloaded.tensors) == len(quantized.tensors))
    summary = {
        "schema": "QUANTIZE_v1",
        "model": checkpoint.config.name,
        "path": str(path),
        "file_bytes": path.stat().st_size,
        "roundtrip": "pass" if roundtrip else "fail",
        **quantized.summary(),
    }
    if args.json == "-":
        import json as _json
        print(_json.dumps(summary, indent=2, sort_keys=True, default=str))
        return 0 if roundtrip else 1
    print(f"model                  {summary['model']} "
          f"({summary['tensors']} tensors, "
          f"{summary['quantized_tensors']} quantised)")
    print(f"quantisation           {summary['quant']}")
    print(f"fp32 bytes             {summary['fp32_bytes']}")
    print(f"quantised bytes        {summary['quantized_bytes']} "
          f"({summary['compression']:.3f}x compression, "
          f"{summary['bytes_saved']} bytes saved)")
    print(f"sidecar                {path} ({summary['file_bytes']} bytes "
          "on disk)")
    print(f"reload round-trip      "
          f"{'PASS' if roundtrip else 'FAIL'}")
    if args.json:
        write_json(args.json, summary)
        print(f"summary written to {args.json}")
    return 0 if roundtrip else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    llm = SpeedLLM(model=args.model, variant=args.variant, seed=args.seed,
                   position_stride=8)
    suite = default_suite(n_prompts=args.prompts, max_new_tokens=args.tokens,
                          seed=args.seed)
    report = validate_accelerator(llm.accelerator, llm.tokenizer, suite,
                                  n_decode=args.tokens)
    print(format_table(report.as_rows()))
    print(f"\nagreement {report.agreement:.4f}, "
          f"max logit error {report.max_logit_error:.2e}, "
          f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_export_graph(args: argparse.Namespace) -> int:
    graph = build_decode_graph(preset(args.model), args.context)
    if args.fused:
        graph = fuse_graph(graph).graph
    text = to_dot(graph) if args.format == "dot" else to_json(graph)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.format} graph ({len(graph)} operators) to {args.output}",
              file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (MetricsRegistry, Tracer, build_chrome_trace,
                      validate_chrome_trace, write_chrome_trace)
    if args.validate:
        import json as _json
        with open(args.validate, "r", encoding="utf-8") as fh:
            payload = _json.load(fh)
        problems = validate_chrome_trace(payload)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        if problems:
            return 1
        events = payload.get("traceEvents", [])
        other = payload.get("otherData", {})
        print(f"{args.validate}: valid ({len(events)} events, "
              f"{other.get('n_spans', '?')} spans, "
              f"{len(other.get('requests', {}))} requests)")
        return 0
    config = _engine_config(args)
    llm = config.build_llm()
    if args.mixed:
        suite = mixed_chat_suite(n_chats=args.requests,
                                 n_documents=max(1, args.requests // 3),
                                 chat_new_tokens=args.tokens,
                                 seed=args.seed)
    else:
        suite = default_suite(n_prompts=args.requests,
                              max_new_tokens=args.tokens, seed=args.seed)
    tracer = Tracer()
    registry = MetricsRegistry() if args.metrics_out else None
    engine = config.build_engine(llm=llm, tracer=tracer, metrics=registry)
    report = engine.serve(list(suite),
                          SamplingParams(ignore_eos=args.ignore_eos))
    payload = build_chrome_trace(
        tracer, report=report, registry=registry,
        meta={"command": "trace", "model": args.model,
              "n_requests": report.n_requests})
    problems = validate_chrome_trace(payload)
    for problem in problems:
        print(f"TRACE INVALID: {problem}", file=sys.stderr)
    write_chrome_trace(args.out, payload)
    print(f"trace written to {args.out} "
          f"({payload['otherData']['n_spans']} spans, "
          f"{report.n_requests} requests, makespan "
          f"{report.makespan_seconds * 1e3:.3f} ms; open in Perfetto or "
          "chrome://tracing)")
    if registry is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(registry.render())
        print(f"metrics written to {args.metrics_out}")
    return 1 if problems else 0


_HANDLERS = {
    "generate": _cmd_generate,
    "bench": _cmd_bench,
    "serve-bench": _cmd_serve_bench,
    "trace": _cmd_trace,
    "quantize": _cmd_quantize,
    "compile-bench": _cmd_compile_bench,
    "serve-api": _cmd_serve_api,
    "validate": _cmd_validate,
    "export-graph": _cmd_export_graph,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
