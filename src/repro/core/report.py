"""Plain-text and JSON rendering of experiment results.

The benchmark harness prints the same rows/series the paper's figures
report; this module holds the formatting so the benchmarks, examples and
tests share one implementation.  The ``*_view`` functions are the text of
the ``speedllm`` subcommands: each takes the typed result of a library
call and returns what the command prints, with no I/O.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - the views only read these
    from ..bench import ApiBench, ClusterBench, ServeBench
    from .speedllm import SpeedLLMOutput
    from .validation import ValidationReport

__all__ = ["format_table", "format_fields", "render_bar_chart", "write_json", "Report",
           "generate_view", "bench_view", "serve_bench_view", "cluster_bench_view",
           "compile_bench_view", "serve_api_view", "quantize_view", "validate_view",
           "trace_validation_view"]


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of dict rows as an aligned fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: Any) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max((len(r[i]) for r in rendered), default=0))
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_fields(rows: Iterable[Any], width: int = 23) -> str:
    """Render ``(label, value)`` rows, each value from column ``width`` (a
    longer label keeps one space); a string row is kept, ``None`` skipped."""
    return "\n".join(
        row if isinstance(row, str) else f"{row[0]:<{width - 1}} {row[1]}"
        for row in rows if row is not None)


def render_bar_chart(
    values: Mapping[str, float],
    width: int = 40,
    unit: str = "",
) -> str:
    """ASCII horizontal bar chart (a stand-in for the paper's figure panels)."""
    if not values:
        return "(no data)"
    peak = max(values.values())
    if peak <= 0:
        peak = 1.0
    label_width = max(len(k) for k in values)
    lines = []
    for name, value in values.items():
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"{name.ljust(label_width)}  {bar} {value:.3f}{unit}")
    return "\n".join(lines)


def write_json(path: str | Path, payload: Any) -> Path:
    """Write ``payload`` as pretty-printed JSON and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return path


class Report:
    """Accumulates named sections of text/tables and renders them together."""

    def __init__(self, title: str) -> None:
        if not title:
            raise ValueError("report title must not be empty")
        self.title = title
        self._sections: List[tuple[str, str]] = []

    def add_section(self, heading: str, body: str) -> None:
        """Append a titled section."""
        self._sections.append((heading, body))

    def add_table(self, heading: str, rows: Sequence[Mapping[str, Any]],
                  columns: Sequence[str] | None = None) -> None:
        """Append a section containing a formatted table."""
        self.add_section(heading, format_table(rows, columns))

    def render(self) -> str:
        """Render the full report as text."""
        lines = [self.title, "=" * len(self.title), ""]
        for heading, body in self._sections:
            lines.append(heading)
            lines.append("-" * len(heading))
            lines.append(body)
            lines.append("")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


# ----------------------------------------------------------------------
# Subcommand views
# ----------------------------------------------------------------------
def generate_view(out: "SpeedLLMOutput") -> str:
    """``speedllm generate``: the completion, then its metrics."""
    return f"{out.text}\n\n" + format_fields([
        ("latency", f"{out.latency_ms:.3f} ms"),
        ("decode throughput", f"{out.decode_tokens_per_second:.1f} tokens/s"),
        ("energy efficiency", f"{out.tokens_per_joule:.1f} tokens/J"),
        ("average power", f"{out.metrics.average_power_w:.1f} W")], width=19)


def bench_view(rows: Sequence[Mapping[str, Any]], headline_speedup: float) -> str:
    """``speedllm bench``: the Fig. 2 table, speedup bars and headline."""
    columns = ["variant", "latency_ms", "normalized_latency", "decode_tokens_per_second",
               "tokens_per_joule", "relative_efficiency"]
    bars = {row["variant"]: 1.0 / row["normalized_latency"] for row in rows}
    return "\n\n".join([format_table(rows, columns), render_bar_chart(bars, unit="x"),
                        f"headline speedup: {headline_speedup:.2f}x (paper: up to 4.8x)"])


def _verdict(mismatches: Sequence[str], ok: str = "PASS") -> str:
    return ok if not mismatches else f"{len(mismatches)} MISMATCHES"


def _quant_fields(q: Mapping[str, Any]) -> list:
    """The accuracy-vs-speed block of a quantised serve-bench run."""
    teacher = q["teacher_forced"]
    return [
        ("quant mode", q["quant"]),
        ("fp32 throughput", f"{q['fp32_throughput_tokens_per_second']:.1f} tokens/s"),
        ("quant throughput", f"{q['quant_throughput_tokens_per_second']:.1f} tokens/s "
                             f"({q['quant_speedup']:.2f}x vs fp32)"),
        ("hbm bytes streamed", f"{q['quant_hbm_bytes']} vs {q['fp32_hbm_bytes']} fp32 "
                               f"({q['quant_bytes_saved']} saved, {q['quant_saved_fraction']:.1%}"
                               " of the fp32-equivalent stream)"),
        ("dequant overhead", f"{q['dequant_overhead_fraction']:.1%} of SFU flops"),
        ("teacher-forced", f"{teacher['token_agreement']:.1%} greedy agreement over "
                           f"{teacher['n_positions']} positions, max logit drift "
                           f"{teacher['max_logit_drift']:.3g}"),
        ("free-decode prefix", f"{q['greedy_prefix_agreement']:.1%} mean agreement "
                               "before first divergence"),
        ("perplexity", f"{q['perplexity_quant']:.3f} quant vs {q['perplexity_fp32']:.3f} fp32"),
    ]


def _compile_stats_fields(stats: Mapping[str, Any]) -> list:
    """The compilation-pipeline breakdown (``--compile-stats``)."""
    phases = "  ".join(f"{name} {seconds * 1e3:.1f}ms"
                       for name, seconds in stats.get("phase_seconds", {}).items())
    cache, tune = stats.get("cache", {}), stats.get("autotune")
    return [
        ("compile phases", f"{phases} (total {stats.get('compile_seconds', 0.0) * 1e3:.1f}ms)"),
        ("compile cache", f"{cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses "
                          f"({cache.get('hit_rate', 0.0):.1%} hit rate, "
                          f"{cache.get('evictions', 0)} evictions, "
                          f"{cache.get('entries', 0)} resident)"),
        ("tile autotuner", f"{tune.get('searches', 0)} searches over "
                           f"{tune.get('search_space', 0)} plans "
                           f"({tune.get('candidates_scored', 0)} candidates scored), win ratio "
                           f"{tune.get('win_ratio', 0.0):.1%}, "
                           f"{tune.get('cycles_saved', 0)} cycles saved") if tune else None,
    ]


def serve_bench_view(result: "ServeBench", *, check: bool = False,
                     compile_stats: Optional[Mapping[str, Any]] = None) -> str:
    """``speedllm serve-bench``: per-request rows, then the aggregates;
    ``compile_stats`` (the compiler's ``stats()``) adds its breakdown."""
    report, agg, engine = result.report, result.aggregate, result.engine
    rows: list = [
        format_table(report.request_rows()), "",
        ("requests served", f"{report.n_requests} ({report.total_generated_tokens} tokens "
                            f"in {report.n_steps} steps)"),
        ("mean batch occupancy", f"{report.mean_batch_tokens:.1f} tokens/step"),
        ("latency p50 / p95", f"{agg['latency_p50_ms']:.3f} / {agg['latency_p95_ms']:.3f} ms"),
        ("ttft p50 / p95", f"{agg['ttft_p50_ms']:.3f} / {agg['ttft_p95_ms']:.3f} ms"),
        ("itl p50 / p95 / p99", f"{agg['itl_p50_ms']:.3f} / {agg['itl_p95_ms']:.3f} / "
                                f"{agg['itl_p99_ms']:.3f} ms"),
        ("mean queue wait", f"{agg['mean_queue_wait_ms']:.3f} ms"),
    ]
    if report.policy != "fifo" or report.chunked_prefill:
        chunk = (f"chunked prefill ({engine.scheduler.config.step_prefill_budget} "
                 "tokens/step)" if report.chunked_prefill else "monolithic prefill")
        rows.append(("scheduling", f"{report.policy} policy, {chunk}"))
    if len(report.tiers) > 1:
        rows += ["", format_table([
            {"tier": tier, **{k: round(v, 3) if isinstance(v, float) else v
                              for k, v in row.items()}}
            for tier, row in report.tier_breakdown().items()
        ], columns=["tier", "n_requests", "ttft_p50_ms", "ttft_p95_ms", "itl_p50_ms",
                    "itl_p95_ms", "itl_p99_ms", "mean_queue_wait_ms"]), ""]
    if report.n_shards > 1:
        rows += [
            ("tensor parallel", f"{report.n_shards} shards"),
            ("per-step compute", f"{agg['mean_step_compute_ms']:.4f} ms (max over shards)"),
            ("interconnect fraction", f"{report.interconnect_fraction:.1%} of step time"),
            ("mean shard utilization",
             f"{sum(report.shard_utilization) / report.n_shards:.1%}")]
    if report.paged:
        rows += [
            ("peak concurrency", f"{report.peak_running} running"),
            ("prefix-hit rate", f"{report.prefix_hit_rate:.1%} ({report.prefix_hit_tokens} of "
                                f"{report.total_prefill_tokens} prefill tokens)"),
            ("preemptions", report.n_preemptions),
            ("mean KV utilization", f"{report.mean_kv_utilization:.1%}")]
    if report.speculative:
        rows += [
            ("speculative method",
             f"{report.spec_method} (K={engine.spec_config.num_draft_tokens})"),
            ("draft acceptance", f"{report.acceptance_rate:.1%} ({report.spec_accepted_tokens} "
                                 f"of {report.spec_draft_tokens} draft tokens)"),
            ("tokens per decode turn", f"{report.tokens_per_decode_step:.2f}")]
    if result.plain_report is not None:
        rows += [
            ("baseline throughput", f"{agg['plain_throughput_tokens_per_second']:.1f} "
                                    "tokens/s (no spec, unchunked, fifo)"),
            ("speculative speedup", f"{agg['speculative_speedup']:.2f}x")
            if "speculative_speedup" in agg else None,
            ("baseline itl p95", f"{agg['baseline_itl_p95_ms']:.3f} ms "
                                 f"({agg['itl_p95_reduction']:+.1%} reduction)")]
    if result.quant_comparison is not None:
        rows += _quant_fields(result.quant_comparison)
    if check:
        rows.append(("token identity check", _verdict(result.mismatches)))
        if result.quant_comparison is not None:
            rows.append(("quant check", "FAIL" if result.quant_failures else "PASS"))
    if compile_stats is not None:
        rows += _compile_stats_fields(compile_stats)
    return format_fields(rows + [
        ("sequential throughput", f"{result.sequential_throughput:.1f} tokens/s"),
        ("batched throughput", f"{report.throughput_tokens_per_second:.1f} tokens/s"),
        ("continuous-batching speedup:", f"{agg['speedup']:.2f}x")])


def cluster_bench_view(result: "ClusterBench", *, check: bool = False) -> str:
    """``speedllm serve-bench --replicas N``: per-replica rows, pooled totals."""
    report = result.report
    pooled, routing = report.pooled, report.routing
    ttft, itl = pooled.ttft_summary(), pooled.itl_summary()
    features = (f"{', disaggregated' if report.disaggregated else ''}"
                f"{', autoscaled' if report.autoscaled else ''}")
    return format_fields([
        format_table([s.as_dict() for s in report.replicas],
                     columns=["replica", "pool", "n_requests", "n_steps", "generated_tokens",
                              "ttft_p50_ms", "itl_p50_ms", "prefix_hit_rate"]), "",
        ("replicas", f"{report.n_replicas} (route={report.route}{features})"),
        ("requests served", f"{pooled.n_requests} ({pooled.total_generated_tokens} tokens)"),
        ("routing decisions", routing.get("decisions")),
        ("affinity hits/spills", f"{routing['affinity_hits']} / {routing['affinity_spills']}")
        if "affinity_hits" in routing else None,
        ("pooled prefix-hit rate", f"{report.prefix_hit_rate:.1%}") if pooled.paged else None,
        format_fields([(f"pooled {name} p50/p95/p99", f"{s.p50 * 1e3:.3f} / "
                        f"{s.p95 * 1e3:.3f} / {s.p99 * 1e3:.3f} ms")
                       for name, s in (("ttft", ttft), ("itl", itl))], width=25),
        ("kv handoffs", f"{report.kv_transfers} ({report.kv_transfer_bytes} bytes, "
                        f"{report.kv_transfer_seconds * 1e3:.3f} ms on the wire, "
                        f"{report.kv_transfer_saved_positions} positions served from "
                        "decode-side prefix cache)") if report.disaggregated else None,
        *(f"  autoscale {event['action']:<7s} replica {event['replica']} at "
          f"t={event['time'] * 1e3:.3f} ms (queued={event['queued']})"
          for event in (report.autoscale_events if report.autoscaled else ())),
        ("token identity check", _verdict(result.mismatches)) if check else None,
        ("cluster makespan", f"{report.makespan_seconds * 1e3:.3f} ms"),
        ("pooled throughput", f"{report.throughput_tokens_per_second:.1f} tokens/s"),
    ])


def compile_bench_view(payload: Mapping[str, Any], *, min_speedup: float,
                       min_hit_rate: float) -> str:
    """``speedllm compile-bench``: the ``COMPILE_BENCH_v1`` headline."""
    fixed, auto = payload["fixed"], payload["autotuned"]
    tune, host = payload["autotune"], payload["host"]
    return format_fields([
        ("suite", f"{payload['suite']} ({payload['n_requests']} requests x "
                  f"{payload['max_new_tokens']} tokens, single-stream, "
                  f"ctx bucket {payload['ctx_bucket']})"),
        ("quantisation", payload["quant"]) if payload.get("quant") else None,
        *((f"{name} tiling", f"{side['throughput_tokens_per_second']:.1f} tokens/s "
                             f"({side['n_steps']} steps)")
          for name, side in (("fixed", fixed), ("autotuned", auto))),
        ("autotuned speedup", f"{payload['speedup']:.4f}x (required >= {min_speedup:.2f}x)"),
        ("autotune searches", f"{tune.get('searches', 0)} over {tune.get('search_space', 0)} "
                              f"plans, win ratio {tune.get('win_ratio', 0.0):.1%}"),
        ("cache hit rate", f"cold {payload['cold_hit_rate']:.1%}, steady-state "
                           f"{payload['steady_state_hit_rate']:.1%} "
                           f"(required >= {min_hit_rate:.0%})"),
        ("stepping wall clock", f"cold {host['cold_seconds']:.2f}s, warm "
                                f"{host['warm_seconds']:.2f}s "
                                f"({host['warm_vs_cold_speedup']:.2f}x from cache reuse)"),
        ("token identity", payload["token_identity"].upper()),
    ])


def serve_api_view(result: "ApiBench", *, check: bool = False) -> str:
    """``speedllm serve-api``: each completion, then the stream check."""
    records = result.payload["completions"]
    lines: List[str] = []
    for r in records:
        lines += [f"[{r['id']}] {r['prompt']!r}",
                  f"  {r['text']}  (finish_reason={r['finish_reason']}, {r['n_chunks']} chunks)"
                  if r["streamed"] else
                  f"  {r['text']!r}  (finish_reason={r['finish_reason']})"]
    if check:
        lines += ["", f"stream-vs-batch check: {_verdict(result.mismatches, 'OK')} "
                      f"({len(records)} completions)"]
    return "\n".join(lines)


def quantize_view(summary: Mapping[str, Any]) -> str:
    """``speedllm quantize``: the ``QUANTIZE_v1`` conversion summary."""
    return format_fields([
        ("model", f"{summary['model']} ({summary['tensors']} tensors, "
                  f"{summary['quantized_tensors']} quantised)"),
        ("quantisation", summary["quant"]),
        ("fp32 bytes", summary["fp32_bytes"]),
        ("quantised bytes", f"{summary['quantized_bytes']} ({summary['compression']:.3f}x "
                            f"compression, {summary['bytes_saved']} bytes saved)"),
        ("sidecar", f"{summary['path']} ({summary['file_bytes']} bytes on disk)"),
        ("reload round-trip", summary["roundtrip"].upper()),
    ])


def validate_view(report: "ValidationReport") -> str:
    """``speedllm validate``: per-prompt agreement, then the verdict."""
    return (f"{format_table(report.as_rows())}\n\nagreement {report.agreement:.4f}, "
            f"max logit error {report.max_logit_error:.2e}, "
            f"{'PASS' if report.passed else 'FAIL'}")


def trace_validation_view(path: str, payload: Mapping[str, Any]) -> str:
    """``speedllm trace --validate``: what the valid file holds."""
    other = payload.get("otherData", {})
    return (f"{path}: valid ({len(payload.get('traceEvents', []))} events, "
            f"{other.get('n_spans', '?')} spans, {len(other.get('requests', {}))} requests)")
