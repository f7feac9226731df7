"""Span ↔ report reconciliation: the trace is a correctness audit.

The acceptance property of the tracing subsystem: latencies recomputed
purely from spans equal the engine's reported
:class:`~repro.serve.metrics.RequestMetrics` **exactly** (``==`` on
floats, no tolerance), across the whole serving-config matrix, under
speculative decoding, and through preemption/readmission.  The tracer
can pin this because it records the very clock floats the engine stores
in ``Request.token_times`` — the trace and the report are two views of
one measurement, not two measurements.

The registry is held to the same standard: every ``speedllm_*`` counter
and every :class:`~repro.serve.metrics.ServeReport` aggregate is a view
of the engine's per-step totals, so per track and pooled they agree with
``==`` — and compile cost lands on the engine that paid it, so a
cluster's pooled compile numbers equal the shared compiler's own.

The flip side is also pinned: tracing is passive.  An enabled tracer
changes no generated token and no reported number, and a disabled one
emits nothing at all.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, SamplingParams, SpecConfig
from repro.cluster import ClusterConfig
from repro.llama.kv_cache import KVCache
from repro.obs import tracer as spans
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import (
    build_chrome_trace,
    reconcile_spans,
    validate_chrome_trace,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve import SchedulerConfig, ServingEngine
from tests.conftest import ENGINE_MATRIX

PROMPTS = [
    "Once upon a time",
    "Lily and Tom went to the park",
    "The little dog was happy",
    "One day a bird found a shiny stone",
]


def assert_exact_reconciliation(tracer, report):
    """Every reported latency equals its span-derived twin, bit-exact."""
    rec = reconcile_spans(tracer.spans)
    assert set(rec) == {r.request_id for r in report.requests}
    for metrics in report.requests:
        derived = rec[metrics.request_id]
        assert derived["ttft_s"] == metrics.time_to_first_token_s
        assert derived["itl_s"] == list(metrics.inter_token_latencies_s)
        assert derived["latency_s"] == metrics.latency_s
        assert derived["n_tokens"] == metrics.n_generated
        assert derived["finish_reason"] == metrics.finish_reason


def serve_traced(config, llm, prompts=PROMPTS, max_tokens=8,
                 tracer=None):
    tracer = tracer if tracer is not None else Tracer()
    registry = MetricsRegistry()
    engine = config.build_engine(llm=llm, tracer=tracer, metrics=registry)
    for i, prompt in enumerate(prompts):
        engine.submit(prompt, SamplingParams(max_tokens=max_tokens,
                                             seed=11 + i))
    report = engine.run()
    return tracer, registry, report


class TestExactReconciliation:
    def test_across_engine_matrix(self, llm, engine_matrix_config):
        """Reservation / paged / TP=2, chunked on and off: span-derived
        TTFT and ITL equal the reported values with ``==``."""
        tracer, registry, report = serve_traced(engine_matrix_config, llm)
        assert_exact_reconciliation(tracer, report)
        payload = build_chrome_trace(tracer, report=report,
                                     registry=registry)
        assert validate_chrome_trace(payload) == []

    def test_with_speculative_decoding(self, llm, engine_matrix_config):
        """Multi-token commits per step keep token instants in lockstep
        with ``token_times``."""
        import dataclasses
        config = dataclasses.replace(engine_matrix_config,
                                     speculative=SpecConfig())
        tracer, registry, report = serve_traced(config, llm)
        assert report.spec_draft_tokens > 0
        assert_exact_reconciliation(tracer, report)
        assert validate_chrome_trace(
            build_chrome_trace(tracer, report=report)) == []
        # Decode spans carry the per-step spec acceptance deltas.
        decodes = tracer.spans_named(spans.DECODE)
        assert any(s.attrs.get("draft_tokens", 0) > 0 for s in decodes)

    def test_through_preemption_and_readmission(self, llm):
        """A pool too small for all requests forces eviction; preempted
        instants land in the trace, readmissions open fresh queued spans,
        and reconciliation stays exact."""
        tracer = Tracer()
        block_bytes = KVCache.bytes_per_block(llm.model_config, 4)
        engine = ServingEngine(llm, SchedulerConfig(
            max_batch_tokens=16,
            paged=True,
            block_tokens=4,
            kv_budget_bytes=7 * block_bytes,
            watermark_fraction=0.0,
        ), tracer=tracer)
        for prompt in PROMPTS[:3]:
            engine.submit(prompt, SamplingParams(max_tokens=10))
        report = engine.run(max_steps=3000)
        assert report.n_preemptions > 0
        marks = tracer.spans_named(spans.PREEMPTED)
        assert len(marks) == report.n_preemptions
        readmitted = [s for s in tracer.spans_named(spans.QUEUED)
                      if s.attrs.get("readmitted")]
        assert readmitted, "no queued span marked as a readmission"
        assert_exact_reconciliation(tracer, report)
        assert validate_chrome_trace(
            build_chrome_trace(tracer, report=report)) == []


    def test_disaggregated_cluster_trace_checks_its_own_metrics(self, llm):
        """The ``trace-smoke`` payload: prefill stubs hand off, yet the
        embedded registry reconciles with the embedded pooled report."""
        tracer, registry = Tracer(), MetricsRegistry()
        cluster = ClusterConfig(
            n_replicas=3, route="rr", disaggregate=True,
            engine=_config(paged=True, block_size=8),
        ).build_cluster(llm=llm, tracer=tracer, metrics=registry)
        for i, prompt in enumerate(PROMPTS):
            cluster.submit(prompt, SamplingParams(max_tokens=8, seed=11 + i))
        report = cluster.run()
        assert report.kv_transfers == len(PROMPTS)
        assert_exact_reconciliation(tracer, report.pooled)
        payload = build_chrome_trace(tracer, report=report.pooled,
                                     registry=registry)
        assert payload["otherData"]["report"]["n_requests"] == len(PROMPTS)
        assert validate_chrome_trace(payload) == []


def registry_total(registry, name, track=None):
    """A series summed over label sets (one track's, or every track's);
    a histogram contributes its observation count."""
    samples = registry.as_dict().get(name, {"samples": {}})["samples"]
    return sum(
        value["count"] if isinstance(value, dict) else value
        for labels, value in samples.items()
        if track is None or f'track="{track}"' in labels)


def assert_registry_is_a_view(registry, report, track=None):
    """The registry's counters equal the report's totals, exactly."""
    for name, expected in [
        ("speedllm_steps_total", report.n_steps),
        ("speedllm_slot_tokens_total", report.total_slots),
        ("speedllm_preemptions_total", report.n_preemptions),
        ("speedllm_step_batch_tokens", report.n_steps),
        ("speedllm_requests_finished_total", report.n_requests),
    ]:
        assert registry_total(registry, name, track) == expected, name


class TestRegistryIsAViewOfTheReport:
    def test_across_engine_matrix(self, llm, engine_matrix_config):
        _, registry, report = serve_traced(engine_matrix_config, llm)
        assert report.n_steps > 0
        assert_registry_is_a_view(registry, report, track="engine-0")

    def test_with_speculative_decoding(self, llm, engine_matrix_config):
        import dataclasses
        config = dataclasses.replace(engine_matrix_config,
                                     speculative=SpecConfig())
        _, registry, report = serve_traced(config, llm)
        assert report.spec_draft_tokens > 0
        assert_registry_is_a_view(registry, report, track="engine-0")

    def test_through_preemption_and_readmission(self, llm):
        registry = MetricsRegistry()
        block_bytes = KVCache.bytes_per_block(llm.model_config, 4)
        engine = ServingEngine(llm, SchedulerConfig(
            max_batch_tokens=16,
            paged=True,
            block_tokens=4,
            kv_budget_bytes=7 * block_bytes,
            watermark_fraction=0.0,
        ), metrics=registry)
        for prompt in PROMPTS[:3]:
            engine.submit(prompt, SamplingParams(max_tokens=10))
        report = engine.run(max_steps=3000)
        assert report.n_preemptions > 0
        assert_registry_is_a_view(registry, report)

    @pytest.mark.parametrize("cluster_kwargs", [
        pytest.param({"n_replicas": 4, "route": "rr"}, id="rr"),
        pytest.param({"n_replicas": 4, "route": "affinity"}, id="affinity"),
        pytest.param({"n_replicas": 4, "route": "rr", "disaggregate": True,
                      "n_prefill_replicas": 2}, id="disaggregated"),
        pytest.param({"n_replicas": 1, "route": "least-loaded",
                      "autoscale": True, "max_replicas": 4,
                      "scale_up_queue_depth": 2}, id="autoscaled"),
    ])
    def test_clusters_per_track_and_pooled(self, cluster_kwargs):
        """One shared, freshly built ``llm``: each replica's series match
        its own report, the sums match the pooled report (a handed-off
        request counts once), and pooled compile cost is the compiler's
        — not one copy of it per replica."""
        config = _config(paged=True, block_size=8, ctx_bucket=32,
                         autotune=True, max_running=2)
        llm = config.build_llm()
        registry = MetricsRegistry()
        cluster = ClusterConfig(engine=config, **cluster_kwargs).build_cluster(
            llm=llm, metrics=registry)
        for i, prompt in enumerate(PROMPTS * 2):
            cluster.submit(prompt, SamplingParams(max_tokens=8, seed=11 + i))
        report = cluster.run()
        assert report.n_replicas == 4
        for replica in report.replicas:
            track = (f"replica-{replica.index}" if replica.pool == "unified"
                     else f"{replica.pool}-{replica.index}")
            assert_registry_is_a_view(registry, replica.report, track)
        pooled = report.pooled
        assert pooled.n_requests == len(PROMPTS) * 2
        assert_registry_is_a_view(registry, pooled)
        assert (registry_total(registry, "speedllm_kv_handoffs_total")
                == report.kv_transfers)
        stats = llm.accelerator.timing.stats()
        assert pooled.autotune_searches == stats["autotune"]["searches"] > 0
        assert (pooled.autotune_candidates
                == stats["autotune"]["candidates_scored"])
        assert pooled.autotune_wins == stats["autotune"]["wins"]
        assert pooled.compile_cache_misses == stats["cache"]["misses"]
        assert pooled.compile_cache_evictions == stats["cache"]["evictions"]
        # Host seconds are summed in a different order than the
        # compiler's own running total, hence approx.
        assert pooled.compile_seconds == pytest.approx(
            stats["compile_seconds"])
        assert pooled.compile_phase_seconds == pytest.approx(
            stats["phase_seconds"])

    def test_second_engine_on_a_warm_llm_pays_nothing(self):
        config = _config(ctx_bucket=32, autotune=True)
        llm = config.build_llm()
        _, _, cold = serve_traced(config, llm)
        assert cold.autotune_searches > 0 and cold.compile_seconds > 0
        _, _, warm = serve_traced(config, llm)
        assert warm.compile_cache_misses == 0
        assert warm.autotune_searches == warm.autotune_candidates == 0
        assert warm.compile_seconds == 0.0

    def test_report_is_a_pure_view(self, llm, engine_matrix_config):
        """Gauges are sampled per step, so asking for a report — twice,
        mid-run or at the end — changes neither the exposition nor the
        answer."""
        registry = MetricsRegistry()
        engine = engine_matrix_config.build_engine(llm=llm, metrics=registry)
        for prompt in PROMPTS:
            engine.submit(prompt, SamplingParams(max_tokens=8))
        engine.step()
        engine.step()
        for _ in range(2):  # mid-run, then drained
            exposition = registry.render()
            assert "speedllm_prefix_hit_rate" in exposition
            assert "speedllm_compile_cache_hit_rate" in exposition
            first, second = engine.report(), engine.report()
            assert first == second
            assert registry.render() == exposition
            engine.run()


def _config(**overrides):
    return EngineConfig(model="test-small", max_batch_tokens=16, **overrides)


def _matrix_engine(llm, tracer, overrides):
    _, _, report = serve_traced(_config(**overrides), llm, tracer=tracer)
    return [report]


def _shared_llm_cluster(llm, tracer, _):
    cluster = ClusterConfig(
        n_replicas=4, route="rr", engine=_config(),
    ).build_cluster(llm=llm, tracer=tracer)
    for i, prompt in enumerate(PROMPTS * 2):
        cluster.submit(prompt, SamplingParams(max_tokens=8, seed=11 + i))
    report = cluster.run()
    return [replica.report for replica in report.replicas] + [report.pooled]


def _second_engine_on_warm_llm(llm, tracer, _):
    serve_traced(_config(), llm)
    _, _, warm = serve_traced(_config(), llm, tracer=tracer)
    assert warm.compile_cache_misses == 0
    return [warm]


class TestCompileLookupAccounting:
    @pytest.mark.parametrize("serve, overrides", [
        *(pytest.param(_matrix_engine, *p.values, id=p.id)
          for p in ENGINE_MATRIX),
        pytest.param(_shared_llm_cluster, None, id="cluster-4-shared-llm"),
        pytest.param(_second_engine_on_warm_llm, None, id="warm-llm"),
    ])
    def test_each_step_counts_one_lookup_on_its_own_engine(
            self, llm, serve, overrides):
        """However many engines share (or pre-warmed) the step compiler,
        a report counts exactly the lookups its own steps made, and each
        ``step`` span carries exactly one."""
        tracer = Tracer()
        reports = serve(llm, tracer, overrides)
        for report in reports:
            assert report.n_steps > 0
            assert (report.compile_cache_hits + report.compile_cache_misses
                    == report.n_steps)
        steps = tracer.spans_named(spans.STEP)
        # The last report covers every traced step (a cluster's is pooled).
        assert len(steps) == reports[-1].n_steps
        for span in steps:
            assert (span.attrs["compile_cache_hits"]
                    + span.attrs["compile_cache_misses"]) == 1


    def test_tensor_parallel_engine_reports_all_its_compile_cost(self):
        """Values come from graphs built outside any compiler, so a
        tensor-parallel engine lowers on its own sharded compiler only:
        the accelerator's unsharded one does no work the report cannot
        see."""
        config = _config(tensor_parallel=2)
        llm = config.build_llm()
        engine = config.build_engine(llm=llm)
        for prompt in PROMPTS:
            engine.submit(prompt, SamplingParams(max_tokens=8))
        report = engine.run()
        assert not any(llm.accelerator.timing.phase_seconds.values())
        stats = engine.backend.compiler.stats()
        # Summed per step, in a different order than the compiler's own
        # running total, hence approx.
        assert report.compile_seconds > 0
        assert report.compile_seconds == pytest.approx(
            stats["compile_seconds"])
        assert report.compile_phase_seconds == pytest.approx(
            stats["phase_seconds"])


class TestTracingIsPassive:
    def test_enabled_tracer_changes_nothing(self, llm, engine_matrix_config):
        """Same tokens, same reported latencies, traced or not."""
        _, _, traced = serve_traced(engine_matrix_config, llm)
        bare_engine = engine_matrix_config.build_engine(llm=llm)
        for i, prompt in enumerate(PROMPTS):
            bare_engine.submit(prompt, SamplingParams(max_tokens=8,
                                                      seed=11 + i))
        bare = bare_engine.run()
        assert ([r.generated_tokens for r in traced.requests]
                == [r.generated_tokens for r in bare.requests])
        for a, b in zip(traced.requests, bare.requests):
            assert a.time_to_first_token_s == b.time_to_first_token_s
            assert a.inter_token_latencies_s == b.inter_token_latencies_s
            assert a.latency_s == b.latency_s
        assert traced.makespan_seconds == bare.makespan_seconds

    def test_untraced_engine_emits_nothing(self, llm, engine_matrix_config):
        engine = engine_matrix_config.build_engine(llm=llm)
        assert engine.tracer is NULL_TRACER
        engine.submit(PROMPTS[0], SamplingParams(max_tokens=4))
        engine.run()
        assert len(NULL_TRACER) == 0

    def test_metrics_sampling_without_tracer(self, llm, engine_matrix_config):
        """The registry attaches independently of span tracing."""
        registry = MetricsRegistry()
        engine = engine_matrix_config.build_engine(llm=llm, metrics=registry)
        for prompt in PROMPTS[:2]:
            engine.submit(prompt, SamplingParams(max_tokens=4))
        report = engine.run()
        snapshot = registry.as_dict()
        steps = sum(snapshot["speedllm_steps_total"]["samples"].values())
        assert steps > 0
        finished = sum(
            snapshot["speedllm_requests_finished_total"]["samples"].values())
        assert finished == len(report.requests)
        tokens = sum(
            snapshot["speedllm_slot_tokens_total"]["samples"].values())
        assert tokens >= sum(r.n_generated for r in report.requests)
