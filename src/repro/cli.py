"""Command-line interface of the SpeedLLM reproduction.

This module parses arguments, maps them onto an
:class:`~repro.api.EngineConfig` / :class:`~repro.cluster.ClusterConfig`,
calls one library function and prints what it returns; what each
benchmark serves, against which twin, and what its JSON carries is
:mod:`repro.bench`'s.  The subcommands:

* ``generate``  — run one text generation on the simulated accelerator
  and print the completion plus the latency/throughput/energy metrics;
* ``bench``     — run the Fig. 2 experiment (all design variants on one
  workload) and print the normalized-latency and energy tables;
* ``serve-bench`` — :func:`repro.bench.serve_bench`: a suite of
  concurrent requests through the continuous-batching engine vs
  sequential generation, vs the plain twin when speculation / chunked
  prefill / a policy is on, vs the fp32 twin with ``--quant``;
  ``--replicas N`` (or ``--disaggregate`` / ``--autoscale``) serves it
  through :func:`repro.bench.cluster_bench` instead; ``--check`` exits
  non-zero unless every token stream matches the twin's; ``--bench-out``
  writes the :func:`repro.bench.bench_matrix` report;
* ``trace``     — serve a suite with the tracer on and write (or, with
  ``--validate``, check) a Perfetto-loadable Chrome-trace timeline;
* ``quantize`` — convert a checkpoint (a preset's synthetic weights or
  a llama2.c ``.bin``) into a ``.slq`` quantised sidecar file holding
  packed INT8/INT4 payloads plus per-group scales, and verify the
  sidecar round-trips;
* ``compile-bench`` — :func:`repro.bench.compile_bench`: fixed vs
  autotuned tiling on the long-context suite, then a warm re-serve;
  ``--min-speedup`` and ``--min-hit-rate`` turn the two headline numbers
  into exit-code assertions CI can gate on;
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

Exit status: 0 on success, 1 when a run fails what it checks (token
identity, a quant gate, an invalid trace), 2 for a usage error — a flag
argparse rejects, or a flag combination the library's configuration
objects reject while the flags are mapped onto them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterator, Optional, Sequence

from . import bench
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
from .graph.sharding import ShardSpec
from .llama.config import available_presets, preset
from .workloads.prompts import default_suite

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


def _obs_sinks(trace_out: Optional[str], metrics_out: Optional[str]):
    """(tracer, registry) the output paths ask for (None = free no-op)."""
    from .obs import MetricsRegistry, Tracer
    return (Tracer() if trace_out else None,
            MetricsRegistry() if metrics_out else None)


def _write_obs_outputs(trace_out: Optional[str], metrics_out: Optional[str],
                       tracer, registry, report, meta: dict,
                       json_on_stdout: bool = False) -> list:
    """Write the trace / metrics artifacts; the trace's problems."""
    problems = []
    # Keep stdout clean when the report itself streams there (--json -).
    out = sys.stderr if json_on_stdout else sys.stdout
    if tracer is not None:
        from .obs import (build_chrome_trace, validate_chrome_trace,
                          write_chrome_trace)
        payload = build_chrome_trace(tracer, report=report,
                                     registry=registry, meta=meta)
        problems = validate_chrome_trace(payload)
        for problem in problems:
            print(f"TRACE INVALID: {problem}", file=sys.stderr)
        write_chrome_trace(trace_out, payload)
        print(f"trace written to {trace_out} "
              f"({payload['otherData']['n_spans']} spans over "
              f"{len(payload['otherData']['tracks'])} tracks; open in "
              "Perfetto or chrome://tracing)", file=out)
    if registry is not None:
        with open(metrics_out, "w", encoding="utf-8") as fh:
            fh.write(registry.render())
        print(f"metrics written to {metrics_out}", file=out)
    return problems


def _json_to_stdout(payload) -> None:
    """``--json -``: the payload is the command's whole stdout."""
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _json_to_file(path: str, payload, what: str = "results") -> None:
    write_json(path, payload)
    print(f"{what} written to {path}")


@contextlib.contextmanager
def _configuring(args: argparse.Namespace) -> Iterator[None]:
    """Flags becoming library configuration.

    What a configuration object rejects here is a usage error: one
    ``speedllm <cmd>: error: <message>`` line and exit status 2, the
    same as a flag argparse itself rejects.  Anything raised once the
    run is configured keeps its traceback.
    """
    try:
        yield
    except ValueError as exc:
        args.usage_error(str(exc))


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
    config = EngineConfig(
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
    # build_engine refuses a model that does not shard this many ways,
    # but only once the model is built; --model is known already.
    ShardSpec.from_config(preset(args.model), args.tensor_parallel)
    return config


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
    for subparser in sub.choices.values():
        subparser.set_defaults(usage_error=subparser.error)
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
    with _configuring(args):
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
        _json_to_file(args.json, rows, what="rows")
    return 0


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


def _serve_bench_suite(args: argparse.Namespace):
    """The workload suite the serve-bench flags select."""
    kind = ("shared-prefix" if args.shared_prefix
            else "repetitive" if args.repetitive
            else "mixed" if args.mixed else "default")
    return bench.select_suite(kind, args.requests, args.tokens, args.seed,
                              prefix_groups=args.prefix_groups,
                              adversarial=args.adversarial)


def _check_verdict(mismatches: list) -> str:
    return "PASS" if not mismatches else f"{len(mismatches)} MISMATCHES"


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    if args.bench_out:
        return _cmd_bench_matrix(args)
    if args.replicas != 1 or args.disaggregate or args.autoscale:
        return _cmd_cluster_bench(args)
    with _configuring(args):
        config = _engine_config(args)
        suite = _serve_bench_suite(args)
    tracer, registry = _obs_sinks(args.trace_out, args.metrics_out)
    result = bench.serve_bench(
        config, suite, ignore_eos=args.ignore_eos,
        stagger_mixed=args.mixed and args.arrival_rate is None,
        check=args.check, min_agreement=args.min_agreement,
        tracer=tracer, metrics=registry)
    report, aggregate = result.report, result.aggregate
    for mismatch in result.mismatches:
        print(mismatch, file=sys.stderr)
    for failure in result.quant_failures:
        print(f"QUANT CHECK FAIL: {failure}", file=sys.stderr)
    trace_problems = _write_obs_outputs(
        args.trace_out, args.metrics_out, tracer, registry, report,
        meta={"command": "serve-bench", "model": args.model,
              "n_requests": len(suite)},
        json_on_stdout=args.json == "-")
    code = 1 if result.failures or trace_problems else 0
    if args.json == "-":
        _json_to_stdout(result.payload)
        return code

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
    if result.plain_report is not None:
        print(f"baseline throughput    "
              f"{aggregate['plain_throughput_tokens_per_second']:.1f} "
              f"tokens/s (no spec, unchunked, fifo)")
        if "speculative_speedup" in aggregate:
            print(f"speculative speedup    "
                  f"{aggregate['speculative_speedup']:.2f}x")
        print(f"baseline itl p95       "
              f"{aggregate['baseline_itl_p95_ms']:.3f} ms "
              f"({aggregate['itl_p95_reduction']:+.1%} reduction)")
    if result.quant_comparison is not None:
        _print_quant_comparison(result.quant_comparison)
    if args.check:
        print(f"token identity check   {_check_verdict(result.mismatches)}")
        if result.quant_comparison is not None:
            print(f"quant check            "
                  f"{'FAIL' if result.quant_failures else 'PASS'}")
    if args.compile_stats:
        _print_compile_stats(result.engine.backend.compiler.stats())
    print(f"sequential throughput  "
          f"{result.sequential_throughput:.1f} tokens/s")
    print(f"batched throughput     {report.throughput_tokens_per_second:.1f} tokens/s")
    print(f"continuous-batching speedup: {aggregate['speedup']:.2f}x")
    if args.json:
        _json_to_file(args.json, result.payload)
    return code


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
    """``serve-bench --replicas N``: the suite through a replica cluster."""
    with _configuring(args):
        cluster_config = _cluster_config(args, _engine_config(args))
        suite = _serve_bench_suite(args)
    tracer, registry = _obs_sinks(args.trace_out, args.metrics_out)
    result = bench.cluster_bench(
        cluster_config, suite, ignore_eos=args.ignore_eos, check=args.check,
        tracer=tracer, metrics=registry)
    report = result.report
    for mismatch in result.mismatches:
        print(mismatch, file=sys.stderr)
    trace_problems = _write_obs_outputs(
        args.trace_out, args.metrics_out, tracer, registry, report.pooled,
        meta={"command": "serve-bench", "model": args.model,
              "n_requests": len(suite),
              "n_replicas": cluster_config.n_replicas,
              "disaggregated": cluster_config.disaggregate},
        json_on_stdout=args.json == "-")
    code = 1 if result.mismatches or trace_problems else 0
    if args.json == "-":
        _json_to_stdout(result.payload)
        return code

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
        print(f"token identity check   {_check_verdict(result.mismatches)}")
    print(f"cluster makespan       {report.makespan_seconds * 1e3:.3f} ms")
    print(f"pooled throughput      "
          f"{report.throughput_tokens_per_second:.1f} tokens/s")
    if args.json:
        _json_to_file(args.json, result.payload)
    return code


def _cmd_bench_matrix(args: argparse.Namespace) -> int:
    """``serve-bench --bench-out``: write the BENCH_v1 config matrix."""
    # The base config is the plain baseline; feature flags the user set
    # (--chunked-prefill, --policy, --speculative) are irrelevant here —
    # the matrix itself decides which features each entry turns on.
    plain_args = argparse.Namespace(**{
        **vars(args), "chunked_prefill": False, "prefill_chunk_tokens": None,
        "policy": "fifo", "speculative": None})
    with _configuring(args):
        base = _engine_config(plain_args)
    payload = bench.bench_matrix(
        base, requests=args.requests, tokens=args.tokens,
        ignore_eos=args.ignore_eos,
        prefill_chunk_tokens=args.prefill_chunk_tokens, log=print)
    write_json(args.bench_out, payload)
    print(f"benchmark report ({bench.BENCH_SCHEMA}) written to "
          f"{args.bench_out}")
    return 0


def _cmd_compile_bench(args: argparse.Namespace) -> int:
    with _configuring(args):
        config = EngineConfig(
            model=args.model, variant=args.variant, seed=args.seed,
            ctx_bucket=args.ctx_bucket, quant=args.quant,
            quant_kv=args.quant_kv, quant_group=args.quant_group,
            fp32_logits=args.fp32_logits)
    payload = bench.compile_bench(
        config, requests=args.requests, prompt_words=args.prompt_words,
        tokens=args.tokens, min_speedup=args.min_speedup,
        min_hit_rate=args.min_hit_rate)
    for failure in payload["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    code = 1 if payload["failures"] else 0
    if args.json == "-":
        _json_to_stdout(payload)
        return code

    fixed, auto = payload["fixed"], payload["autotuned"]
    host = payload["host"]
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
    print(f"stepping wall clock    cold {host['cold_seconds']:.2f}s, "
          f"warm {host['warm_seconds']:.2f}s "
          f"({host['warm_vs_cold_speedup']:.2f}x from cache reuse)")
    print(f"token identity         {payload['token_identity'].upper()}")
    if args.json:
        _json_to_file(args.json, payload)
    return code


#: Demo prompts of the serve-api walkthrough (used when --prompt absent).
_SERVE_API_PROMPTS = (
    "Once upon a time",
    "The little dog was happy",
    "Lily and Tom went to the park",
)


def _cmd_serve_api(args: argparse.Namespace) -> int:
    with _configuring(args):
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
        _json_to_stdout(payload)
    elif args.json:
        _json_to_file(args.json, payload)
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
                 and reloaded.quant == quant
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
        _json_to_stdout(summary)
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
        _json_to_file(args.json, summary, what="summary")
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
    if args.validate:
        from .obs import validate_chrome_trace
        with open(args.validate, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
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
    with _configuring(args):
        suite = bench.select_suite("mixed" if args.mixed else "default",
                                   args.requests, args.tokens, args.seed)
        config = _engine_config(args)
    tracer, registry = _obs_sinks(args.out, args.metrics_out)
    engine = config.build_engine(tracer=tracer, metrics=registry)
    report = engine.serve(suite, SamplingParams(ignore_eos=args.ignore_eos))
    problems = _write_obs_outputs(
        args.out, args.metrics_out, tracer, registry, report,
        meta={"command": "trace", "model": args.model,
              "n_requests": report.n_requests})
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
