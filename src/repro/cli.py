"""Command-line interface of the SpeedLLM reproduction.

This module is a shell: each subcommand maps its flags onto a config,
calls one library function and hands the typed result to a view in
:mod:`repro.core.report`; :func:`main` alone emits what the handler
returns.  What each benchmark serves, against which twin, and what its
JSON carries is :mod:`repro.bench`'s.  The subcommands:

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
* ``quantize`` — :func:`repro.quant.convert_to_sidecar`: convert a
  checkpoint (a preset's synthetic weights or a llama2.c ``.bin``) into
  a ``.slq`` quantised sidecar file holding packed INT8/INT4 payloads
  plus per-group scales, and verify the sidecar round-trips;
* ``compile-bench`` — :func:`repro.bench.compile_bench`: fixed vs
  autotuned tiling on the long-context suite, then a warm re-serve;
  ``--min-speedup`` and ``--min-hit-rate`` turn the two headline numbers
  into exit-code assertions CI can gate on;
* ``serve-api`` — :func:`repro.bench.api_bench`, the frontend-API demo:
  run OpenAI-style completions (streamed chunk-by-chunk by default)
  through the engine, optionally asserting that the reassembled stream
  matches the non-streamed result;
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
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from . import bench
from .accel.variants import PAPER_VARIANTS
from .api import CompletionRequest, EngineConfig, SamplingParams, SpecConfig
from .cluster import ROUTES, ClusterConfig
from .core import report
from .core.report import write_json
from .core.runner import ExperimentConfig, ExperimentRunner
from .core.speedllm import SpeedLLM
from .core.validation import validate_accelerator
from .graph.builder import build_decode_graph
from .graph.export import to_dot, to_json
from .graph.fusion import fuse_graph
from .graph.sharding import ShardSpec
from .llama.checkpoint import load_checkpoint, synthesize_weights
from .llama.config import available_presets, preset
from .llama.tokenizer import Tokenizer
from .quant import convert_to_sidecar, resolve_quant
from .workloads.prompts import default_suite, long_context_suite

__all__ = ["main", "build_parser"]


def _add_model(parser: argparse.ArgumentParser, default: str = "stories15M",
               variant: bool = True) -> None:
    """``--model`` and, unless ``variant`` is off, the design ``--variant``."""
    parser.add_argument("--model", default=default, choices=available_presets())
    if variant:
        parser.add_argument("--variant", default="full",
                            choices=sorted(PAPER_VARIANTS))


def _add_seed(parser: argparse.ArgumentParser, default: int = 0,
              help: Optional[str] = None) -> None:
    parser.add_argument("--seed", type=int, default=default, help=help)


def _add_json(parser: argparse.ArgumentParser, what: str) -> None:
    """``--json``: where :func:`main` writes the command's payload."""
    parser.add_argument("--json", default=None,
                        help=f"write {what} to this path ('-' for stdout)")


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


def _add_quant_options(parser: argparse.ArgumentParser,
                       mode: str = "--quant") -> None:
    """Quantisation flags; ``mode`` is the flag that picks int8/int4
    (``--quant``, added here, or ``quantize``'s own ``--mode``)."""
    if mode == "--quant":
        parser.add_argument("--quant", choices=("int8", "int4", "fp32"),
                            default=None,
                            help="weight quantisation for the datapath: "
                                 "'int8' or 'int4' group-quantised streaming "
                                 "with byte-accurate savings accounting, "
                                 "'fp32' a full-precision datapath (the "
                                 "honest baseline quantised runs are "
                                 "compared against)")
    parser.add_argument("--quant-kv", action="store_true",
                        help="also store the KV cache group-quantised at "
                             f"INT8 (with {mode} int8/int4)")
    parser.add_argument("--quant-group", type=int, default=64,
                        help="quantisation group size (scales stored per "
                             "group of this many weights)")
    parser.add_argument("--fp32-logits", action="store_true",
                        help="keep the classifier head (and a shared "
                             f"embedding table) at fp32 (with {mode})")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Observability flags of the commands that can write a trace."""
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the Prometheus text exposition of the "
                             "live metrics registry to PATH")
    parser.add_argument("--trace-cycles", action="store_true",
                        help="also record cycle-level accelerator intervals "
                             "and place them under each step span of the "
                             "written trace (serve-bench: needs "
                             "--trace-out)")


def _obs_sinks(trace_out: Optional[str], metrics_out: Optional[str]):
    """(tracer, registry) the output paths ask for (None = free no-op)."""
    from .obs import MetricsRegistry, Tracer
    return (Tracer() if trace_out else None,
            MetricsRegistry() if metrics_out else None)


def _write_obs_outputs(trace_out: Optional[str], metrics_out: Optional[str],
                       tracer, registry, served,
                       meta: dict) -> Tuple[List[str], List[str]]:
    """Write the trace / metrics files: (lines naming them, the trace's
    ``TRACE INVALID:`` problems)."""
    notes, problems = [], []
    if tracer is not None:
        from .obs import (build_chrome_trace, validate_chrome_trace,
                          write_chrome_trace)
        payload = build_chrome_trace(tracer, report=served,
                                     registry=registry, meta=meta)
        problems = [f"TRACE INVALID: {problem}"
                    for problem in validate_chrome_trace(payload)]
        write_chrome_trace(trace_out, payload)
        notes.append(f"trace written to {trace_out} "
                     f"({payload['otherData']['n_spans']} spans over "
                     f"{len(payload['otherData']['tracks'])} tracks; open in "
                     "Perfetto or chrome://tracing)")
    if registry is not None:
        with open(metrics_out, "w", encoding="utf-8") as fh:
            fh.write(registry.render())
        notes.append(f"metrics written to {metrics_out}")
    return notes, problems


@dataclass
class _Outcome:
    """What one subcommand hands :func:`main` to emit."""

    #: The view; printed unless ``--json -``.
    text: Optional[str] = None
    #: What ``--json`` writes.
    payload: Any = None
    #: Lines for stderr; any of them makes the exit status 1.
    failures: Sequence[str] = ()
    #: Exit status when there are no failures.
    code: int = 0
    #: Lines naming files the run wrote: stdout before the text (stderr under --json -).
    notes: Sequence[str] = ()
    #: Lines for stderr that are not failures.
    log: Sequence[str] = ()
    #: How the ``--json PATH`` line names the payload.
    what: str = "results"
    #: Where the payload goes instead of ``--json`` (``--bench-out``).
    json_path: Optional[str] = None


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
        trace_cycles=getattr(args, "trace_cycles", False),  # not serve-api
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
        quant=args.quant,
        quant_kv=args.quant_kv,
        quant_group=args.quant_group,
        fp32_logits=args.fp32_logits,
        hbm_channels=args.hbm_channels,
        autotune=args.autotune,
        ctx_bucket=args.ctx_bucket,
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
    _add_model(gen)
    gen.add_argument("--tokens", type=int, default=48)
    gen.add_argument("--temperature", type=float, default=0.0)
    gen.add_argument("--top-p", type=float, default=1.0)
    _add_seed(gen)
    gen.add_argument("--stride", type=int, default=16,
                     help="timing-simulation position stride")
    gen.add_argument("--checkpoint", default=None,
                     help="optional llama2.c .bin checkpoint to load")
    gen.add_argument("--tokenizer", default=None,
                     help="optional tokenizer.bin to load")

    # bench -------------------------------------------------------------
    bench = sub.add_parser("bench", help="run the Fig. 2 variant comparison")
    _add_model(bench, variant=False)
    bench.add_argument("--prompt-tokens", type=int, default=8)
    bench.add_argument("--tokens", type=int, default=64)
    bench.add_argument("--stride", type=int, default=16)
    bench.add_argument("--energy", choices=("effective", "board"), default="effective")
    _add_json(bench, "result rows")

    # serve-bench -------------------------------------------------------
    serve = sub.add_parser(
        "serve-bench",
        help="benchmark continuous-batching serving against sequential generation",
    )
    _add_model(serve)
    serve.add_argument("--requests", type=int, default=8,
                       help="number of concurrent requests to serve")
    serve.add_argument("--tokens", type=int, default=32,
                       help="decode budget per request")
    _add_seed(serve, 3)
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
    _add_json(serve, "per-request rows and aggregates")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Perfetto-loadable Chrome-trace "
                            "timeline of the featured run to PATH "
                            "(request-lifecycle spans on the simulated "
                            "clock, one track per replica)")
    _add_obs_options(serve)

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
    _add_model(trace)
    trace.add_argument("--requests", type=int, default=6,
                       help="number of requests in the traced suite")
    trace.add_argument("--tokens", type=int, default=16,
                       help="decode budget per request")
    _add_seed(trace)
    trace.add_argument("--mixed", action="store_true",
                       help="trace the mixed chat/document suite instead "
                            "of the default one")
    trace.add_argument("--ignore-eos", action="store_true",
                       help="never retire on EOS (fixed-length decode)")
    _add_engine_options(trace)
    _add_obs_options(trace)
    trace.add_argument("--out", default="trace.json",
                       help="trace JSON output path (default: trace.json)")

    # quantize ----------------------------------------------------------
    quant = sub.add_parser(
        "quantize",
        help="convert a checkpoint to a quantised .slq sidecar file",
    )
    _add_model(quant, variant=False)
    quant.add_argument("--checkpoint", default=None,
                       help="llama2.c .bin checkpoint to quantise "
                            "(default: the preset's synthetic weights)")
    _add_seed(quant, help="seed of the synthetic weights (without "
                          "--checkpoint)")
    quant.add_argument("--mode", choices=("int8", "int4"), default="int8",
                       help="weight quantisation mode")
    _add_quant_options(quant, mode="--mode")
    quant.add_argument("--out", default=None,
                       help="output .slq path (default: "
                            "<model>-<mode>.slq)")
    _add_json(quant, "the conversion summary")

    # compile-bench -----------------------------------------------------
    cbench = sub.add_parser(
        "compile-bench",
        help="fixed vs autotuned tiling on the long-context suite, plus a "
             "warm re-serve measuring wall-clock compile-cache reuse",
    )
    _add_model(cbench)
    cbench.add_argument("--requests", type=int, default=4,
                        help="long-context requests to serve")
    cbench.add_argument("--prompt-words", type=int, default=48,
                        help="words per long-context prompt")
    cbench.add_argument("--tokens", type=int, default=96,
                        help="decode budget per request")
    _add_seed(cbench, 37)
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
    _add_json(cbench, "the comparison report")

    # serve-api ---------------------------------------------------------
    api = sub.add_parser(
        "serve-api",
        help="OpenAI-style streamed completions over the serving engine",
    )
    _add_model(api)
    _add_seed(api)
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
    _add_json(api, "completions and the serving report")

    # validate ----------------------------------------------------------
    val = sub.add_parser("validate",
                         help="compare accelerator output against the reference engine")
    _add_model(val, "test-small")
    val.add_argument("--prompts", type=int, default=3)
    val.add_argument("--tokens", type=int, default=12)
    _add_seed(val)

    # export-graph ------------------------------------------------------
    export = sub.add_parser("export-graph",
                            help="export a decode-step operator graph")
    _add_model(export, variant=False)
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
# Subcommand implementations: flags in, one library call, a view out
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> _Outcome:
    if args.tokenizer and not args.checkpoint:
        args.usage_error("--tokenizer is the vocabulary of a checkpoint: "
                         "it needs --checkpoint")
    with _configuring(args):
        params = SamplingParams(max_tokens=args.tokens,
                                temperature=args.temperature, top_p=args.top_p,
                                seed=args.seed)
    # A file that fails to load is not a usage error: it keeps its
    # traceback, as in ``quantize``.
    checkpoint = tokenizer = None
    if args.checkpoint:
        checkpoint = load_checkpoint(args.checkpoint)
        tokenizer = Tokenizer.load(args.tokenizer) if args.tokenizer else None
    with _configuring(args):
        if checkpoint is None:
            llm = SpeedLLM(model=args.model, variant=args.variant, seed=args.seed,
                           position_stride=args.stride)
        else:
            llm = SpeedLLM(model=checkpoint.config, checkpoint=checkpoint,
                           tokenizer=tokenizer, variant=args.variant,
                           position_stride=args.stride)
    return _Outcome(text=report.generate_view(
        llm.generate(args.prompt, params=params)))


def _cmd_bench(args: argparse.Namespace) -> _Outcome:
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
    return _Outcome(text=report.bench_view(rows, runner.headline_speedup()),
                    payload=rows, what="rows")


def _serve_bench_suite(args: argparse.Namespace):
    """The workload suite the serve-bench flags select."""
    kind = ("shared-prefix" if args.shared_prefix
            else "repetitive" if args.repetitive
            else "mixed" if args.mixed else "default")
    return bench.select_suite(kind, args.requests, args.tokens, args.seed,
                              prefix_groups=args.prefix_groups,
                              adversarial=args.adversarial)


def _cmd_serve_bench(args: argparse.Namespace) -> _Outcome:
    if args.trace_cycles and not args.trace_out:
        # Every step would walk every packet and keep every interval,
        # for a trace nothing writes.
        args.usage_error("--trace-cycles records intervals only a trace "
                         "shows: it needs --trace-out")
    if args.bench_out:
        return _cmd_bench_matrix(args)
    cluster = args.replicas != 1 or args.disaggregate or args.autoscale
    with _configuring(args):
        config = _engine_config(args)
        cluster_config = ClusterConfig(
            engine=config, n_replicas=args.replicas, route=args.route,
            disaggregate=args.disaggregate, n_prefill_replicas=args.prefill_replicas,
            autoscale=args.autoscale, max_replicas=args.max_replicas) if cluster else None
        suite = _serve_bench_suite(args)
    tracer, registry = _obs_sinks(args.trace_out, args.metrics_out)
    meta = {"command": "serve-bench", "model": args.model,
            "n_requests": len(suite)}
    if cluster:
        # ``serve-bench --replicas N``: the suite through a replica cluster.
        result = bench.cluster_bench(
            cluster_config, suite, ignore_eos=args.ignore_eos,
            check=args.check, tracer=tracer, metrics=registry)
        served, failures = result.report.pooled, result.mismatches
        meta.update(n_replicas=cluster_config.n_replicas,
                    disaggregated=cluster_config.disaggregate)
        text = report.cluster_bench_view(result, check=args.check)
    else:
        result = bench.serve_bench(
            config, suite, ignore_eos=args.ignore_eos,
            stagger_mixed=args.mixed and args.arrival_rate is None,
            check=args.check, min_agreement=args.min_agreement,
            tracer=tracer, metrics=registry)
        served, failures = result.report, result.failures
        text = report.serve_bench_view(
            result, check=args.check,
            compile_stats=(result.engine.backend.compiler.stats()
                           if args.compile_stats else None))
    notes, problems = _write_obs_outputs(args.trace_out, args.metrics_out,
                                         tracer, registry, served, meta)
    return _Outcome(text=text, payload=result.payload, notes=notes,
                    failures=[*failures, *problems])


def _cmd_bench_matrix(args: argparse.Namespace) -> _Outcome:
    """``serve-bench --bench-out``: write the BENCH_v1 config matrix."""
    # The base config is the plain baseline; feature flags the user set
    # (--chunked-prefill, --policy, --speculative) are irrelevant here —
    # the matrix itself decides which features each entry turns on.
    plain_args = argparse.Namespace(**{
        **vars(args), "chunked_prefill": False, "prefill_chunk_tokens": None,
        "policy": "fifo", "speculative": None})
    with _configuring(args):
        base = _engine_config(plain_args)
    progress: List[str] = []
    payload = bench.bench_matrix(
        base, requests=args.requests, tokens=args.tokens,
        ignore_eos=args.ignore_eos,
        prefill_chunk_tokens=args.prefill_chunk_tokens, log=progress.append)
    return _Outcome(text="\n".join(progress), payload=payload,
                    json_path=args.bench_out,
                    what=f"benchmark report ({bench.BENCH_SCHEMA})")


def _cmd_compile_bench(args: argparse.Namespace) -> _Outcome:
    with _configuring(args):
        config = EngineConfig(
            model=args.model, variant=args.variant, seed=args.seed,
            ctx_bucket=args.ctx_bucket, quant=args.quant,
            quant_kv=args.quant_kv, quant_group=args.quant_group,
            fp32_logits=args.fp32_logits)
        # The suite compile_bench serves: a size it rejects is a flag's.
        long_context_suite(n_prompts=args.requests,
                           prompt_words=args.prompt_words,
                           max_new_tokens=args.tokens, seed=args.seed)
    payload = bench.compile_bench(
        config, requests=args.requests, prompt_words=args.prompt_words,
        tokens=args.tokens, min_speedup=args.min_speedup,
        min_hit_rate=args.min_hit_rate)
    return _Outcome(
        text=report.compile_bench_view(payload, min_speedup=args.min_speedup,
                                       min_hit_rate=args.min_hit_rate),
        payload=payload,
        failures=[f"FAIL: {failure}" for failure in payload["failures"]])


#: Demo prompts of the serve-api walkthrough (used when --prompt absent).
_SERVE_API_PROMPTS = (
    "Once upon a time",
    "The little dog was happy",
    "Lily and Tom went to the park",
)


def _cmd_serve_api(args: argparse.Namespace) -> _Outcome:
    with _configuring(args):
        config = _engine_config(args)
        requests = [CompletionRequest(
            prompt=prompt, max_tokens=args.max_tokens, temperature=args.temperature,
            top_p=args.top_p, seed=args.seed + i, stop=tuple(args.stop or ()),
            logprobs=args.logprobs, stream=not args.no_stream)
            for i, prompt in enumerate(args.prompt or _SERVE_API_PROMPTS)]
        for request in requests:
            request.to_sampling_params()  # rejects a bad sampling flag
    result = bench.api_bench(config, requests, check=args.check)
    return _Outcome(text=report.serve_api_view(result, check=args.check),
                    payload=result.payload, failures=result.mismatches)


def _cmd_quantize(args: argparse.Namespace) -> _Outcome:
    """Convert a checkpoint to a ``.slq`` quantised sidecar file."""
    with _configuring(args):
        quant = resolve_quant(args.mode, group_size=args.quant_group,
                              quant_kv=args.quant_kv,
                              fp32_logits=args.fp32_logits)
    if args.checkpoint:
        checkpoint = load_checkpoint(args.checkpoint)
    else:
        checkpoint = synthesize_weights(preset(args.model), seed=args.seed)
    summary = convert_to_sidecar(
        checkpoint, quant,
        args.out or f"{checkpoint.config.name}-{args.mode}.slq")
    return _Outcome(text=report.quantize_view(summary), payload=summary,
                    code=0 if summary["roundtrip"] == "pass" else 1,
                    what="summary")


def _cmd_validate(args: argparse.Namespace) -> _Outcome:
    with _configuring(args):
        suite = default_suite(n_prompts=args.prompts, max_new_tokens=args.tokens,
                              seed=args.seed)
        llm = SpeedLLM(model=args.model, variant=args.variant, seed=args.seed)
    result = validate_accelerator(llm.accelerator, llm.tokenizer, suite,
                                  n_decode=args.tokens)
    return _Outcome(text=report.validate_view(result),
                    code=0 if result.passed else 1)


def _cmd_export_graph(args: argparse.Namespace) -> _Outcome:
    with _configuring(args):
        graph = build_decode_graph(preset(args.model), args.context)
    if args.fused:
        graph = fuse_graph(graph)
    text = to_dot(graph) if args.format == "dot" else to_json(graph)
    if args.output == "-":
        return _Outcome(text=text)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return _Outcome(log=[f"wrote {args.format} graph ({len(graph)} operators) "
                         f"to {args.output}"])


def _cmd_trace(args: argparse.Namespace) -> _Outcome:
    if args.validate:
        from .obs import validate_chrome_trace
        with open(args.validate, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        problems = validate_chrome_trace(payload)
        if problems:
            return _Outcome(failures=[f"INVALID: {p}" for p in problems])
        return _Outcome(text=report.trace_validation_view(args.validate,
                                                          payload))
    with _configuring(args):
        suite = bench.select_suite("mixed" if args.mixed else "default",
                                   args.requests, args.tokens, args.seed)
        config = _engine_config(args)
    tracer, registry = _obs_sinks(args.out, args.metrics_out)
    engine = config.build_engine(tracer=tracer, metrics=registry)
    served = engine.serve(suite, SamplingParams(ignore_eos=args.ignore_eos))
    notes, problems = _write_obs_outputs(
        args.out, args.metrics_out, tracer, registry, served,
        meta={"command": "trace", "model": args.model,
              "n_requests": served.n_requests})
    return _Outcome(notes=notes, failures=problems)


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
    """CLI entry point; returns the process exit code.

    The one place an outcome is emitted: failure lines to stderr, then
    the payload alone on stdout under ``--json -``, or else the text and
    the payload written to ``--json PATH``.
    """
    args = build_parser().parse_args(argv)
    outcome = _HANDLERS[args.command](args)
    path = outcome.json_path or getattr(args, "json", None)
    for line in outcome.failures:
        print(line, file=sys.stderr)
    if path == "-":
        for line in outcome.notes:
            print(line, file=sys.stderr)
        print(json.dumps(outcome.payload, indent=2, sort_keys=True,
                         default=str))
    else:
        for line in outcome.notes:
            print(line)
        if outcome.text is not None:
            print(outcome.text)
        if path:
            write_json(path, outcome.payload)
            print(f"{outcome.what} written to {path}")
    for line in outcome.log:
        print(line, file=sys.stderr)
    return 1 if outcome.failures else outcome.code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
