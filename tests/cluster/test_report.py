"""Cross-replica report aggregation (``ServeReport.merged`` and
``ClusterReport``).

The pooled percentiles must be computed over the *concatenated* request
samples — averaging per-replica percentiles is statistically meaningless
and these tests pin the difference on a population skewed enough that
the two disagree.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import ClusterReport, ReplicaSummary
from repro.core.metrics import percentile
from repro.fpga.power import EnergyBreakdown
from repro.serve.metrics import RequestMetrics, ServeReport, StepTotals
from repro.sim.stats import RunCounters


def _request(i, ttft, itls=(), priority=0, latency=None):
    return RequestMetrics(
        request_id=f"r{i}",
        prompt=f"prompt {i}",
        text="",
        prompt_tokens=[1, 2, 3],
        generated_tokens=[4, 5],
        queue_wait_s=0.001 * i,
        time_to_first_token_s=ttft,
        latency_s=latency if latency is not None else ttft + 0.5,
        priority=priority,
        inter_token_latencies_s=list(itls),
        finish_reason="length",
    )


def _report(requests, makespan=1.0, n_steps=10, policy="fifo",
            peak_running=2, counters=None, kv_util=0.0):
    return ServeReport(
        requests=list(requests),
        n_steps=n_steps,
        total_slots=4 * n_steps,
        makespan_seconds=makespan,
        counters=counters or RunCounters(),
        energy=EnergyBreakdown(),
        policy=policy,
        peak_running=peak_running,
        kv_utilization_sum=kv_util * n_steps,
    )


class TestMergedPercentiles:
    def test_pooled_percentiles_use_concatenated_samples(self):
        # Replica A: nine fast requests.  Replica B: one very slow one.
        fast = [0.01 * (i + 1) for i in range(9)]
        slow = [10.0]
        a = _report([_request(i, t) for i, t in enumerate(fast)])
        b = _report([_request(100, slow[0])], makespan=12.0)
        merged = ServeReport.merged([a, b])
        pooled = fast + slow
        ttft = merged.ttft_summary()
        assert ttft.n == 10
        assert ttft.p50 == pytest.approx(percentile(pooled, 50.0))
        assert ttft.p95 == pytest.approx(percentile(pooled, 95.0))
        assert ttft.p99 == pytest.approx(percentile(pooled, 99.0))
        # The wrong aggregation — averaging each replica's own median —
        # is dragged to ~5s by the outlier replica; the pooled median
        # stays with the nine fast requests.
        averaged_p50 = (a.ttft_summary().p50 + b.ttft_summary().p50) / 2
        assert averaged_p50 > 5.0
        assert ttft.p50 < 0.1

    def test_itl_percentiles_pool_every_gap(self):
        a = _report([_request(0, 0.1, itls=[0.001, 0.002]),
                     _request(1, 0.2, itls=[0.003])])
        b = _report([_request(2, 0.3, itls=[0.5])])
        merged = ServeReport.merged([a, b])
        gaps = [0.001, 0.002, 0.003, 0.5]
        itl = merged.itl_summary()
        assert itl.n == len(gaps)
        assert itl.p50 == pytest.approx(percentile(gaps, 50.0))
        assert itl.max == pytest.approx(0.5)

    def test_tier_breakdown_survives_aggregation(self):
        # Urgent requests on one replica, batch tier on the other — the
        # pooled breakdown must still split them per tier and compute
        # each tier's percentiles over that tier's pooled samples.
        urgent = [_request(i, 0.01 * (i + 1), itls=[0.001], priority=0)
                  for i in range(3)]
        batch = [_request(10 + i, 1.0 + i, itls=[0.1], priority=2)
                 for i in range(2)]
        merged = ServeReport.merged([
            _report(urgent + [_request(20, 2.5, priority=2)]),
            _report(batch, policy="priority"),
        ])
        assert merged.tiers == [0, 2]
        breakdown = merged.tier_breakdown()
        assert breakdown[0]["n_requests"] == 3
        assert breakdown[2]["n_requests"] == 3
        tier2_ttfts = [1.0, 2.0, 2.5]
        assert breakdown[2]["ttft_p50_ms"] == pytest.approx(
            percentile(tier2_ttfts, 50.0) * 1e3)
        assert merged.policy == "mixed"


class TestMergedEdgeCases:
    def test_empty_input_yields_zero_report(self):
        merged = ServeReport.merged([])
        assert merged.n_requests == 0
        assert merged.makespan_seconds == 0.0
        assert merged.throughput_tokens_per_second == 0.0
        assert merged.ttft_summary().p95 == 0.0
        assert merged.as_dict()["n_requests"] == 0

    def test_empty_replica_does_not_perturb_percentiles(self):
        # A freshly spawned (or fully drained) replica served nothing;
        # pooling it in must not shift any percentile.
        busy = _report([_request(i, 0.1 * (i + 1)) for i in range(5)],
                       makespan=2.0)
        idle = _report([], makespan=0.0, n_steps=0, peak_running=0)
        merged = ServeReport.merged([busy, idle])
        assert merged.n_requests == 5
        assert merged.ttft_summary() == busy.ttft_summary()
        assert merged.makespan_seconds == 2.0

    def test_counts_sum_and_makespan_is_max(self):
        a = _report([_request(0, 0.1)], makespan=1.0, n_steps=10,
                    peak_running=3,
                    counters=RunCounters(hbm_read_bytes=100,
                                         instructions=7),
                    kv_util=0.5)
        b = _report([_request(1, 0.2)], makespan=3.0, n_steps=30,
                    peak_running=2,
                    counters=RunCounters(hbm_read_bytes=50,
                                         instructions=1),
                    kv_util=0.1)
        merged = ServeReport.merged([a, b])
        assert merged.makespan_seconds == 3.0  # concurrent, not summed
        assert merged.n_steps == 40
        assert merged.peak_running == 5
        assert merged.counters.hbm_read_bytes == 150
        assert merged.counters.instructions == 8
        # KV utilisation is step-weighted, not a plain mean.
        assert merged.mean_kv_utilization == pytest.approx(
            (0.5 * 10 + 0.1 * 30) / 40)

    def test_single_policy_is_preserved(self):
        merged = ServeReport.merged([
            _report([_request(0, 0.1)], policy="priority"),
            _report([_request(1, 0.2)], policy="priority"),
        ])
        assert merged.policy == "priority"


def _distinct_totals(scale):
    """A ``StepTotals`` whose every field holds a different value."""
    values = {}
    for i, spec in enumerate(dataclasses.fields(StepTotals), start=1):
        default = getattr(StepTotals(), spec.name)
        if isinstance(default, bool):
            raise AssertionError(f"{spec.name}: flags do not add")
        if isinstance(default, (int, float)):
            values[spec.name] = type(default)(scale * i)
        elif isinstance(default, RunCounters):
            values[spec.name] = RunCounters(instructions=scale * i,
                                            hbm_read_bytes=scale)
        elif isinstance(default, dict):
            values[spec.name] = {"build": 0.5 * scale, f"only-{scale}": 1.0}
        elif isinstance(default, list):
            values[spec.name] = [0.25 * scale, 0.5 * scale]
        else:
            raise AssertionError(
                f"{spec.name}: no merge rule for {type(default).__name__}")
    return StepTotals(**values)


#: How ``merged`` pools what does not add, as (value in a, value in b,
#: expected pooled value).  Every ``ServeReport`` field that is not a
#: ``StepTotals`` counter must be listed here.
_CONTEXT_RULES = {
    "requests": ([_request(0, 0.1)], [_request(1, 0.2)],
                 [_request(0, 0.1), _request(1, 0.2)]),       # concatenated
    "makespan_seconds": (1.5, 4.0, 4.0),                      # concurrent: max
    "energy": (EnergyBreakdown(static_j=1.0, offchip_j=0.5),
               EnergyBreakdown(static_j=2.0, compute_j=0.25),
               EnergyBreakdown(static_j=3.0, compute_j=0.25,
                               offchip_j=0.5)),               # per engine, summed
    "policy": ("fifo", "priority", "mixed"),
    "chunked_prefill": (False, True, True),                   # any
    "paged": (True, False, True),                             # any
    "n_shards": (1, 2, 2),                                    # widest
    "quant": (None, "int8g64", "int8g64"),                    # first set
    "spec_method": ("ngram", None, "ngram"),                  # first set
}


class TestMergeCompleteness:
    """``merged`` is the sum of the replicas' totals: a counter declared
    on ``StepTotals`` cannot be forgotten in the pool."""

    def test_totals_add_field_wise(self):
        a, b = _distinct_totals(2), _distinct_totals(3)
        total = a + b
        for spec in dataclasses.fields(StepTotals):
            x, y = getattr(a, spec.name), getattr(b, spec.name)
            got = getattr(total, spec.name)
            if isinstance(x, dict):
                assert got == {"build": 2.5, "only-2": 1.0, "only-3": 1.0}
            elif isinstance(x, list):
                assert got == [1.25, 2.5]
            else:
                assert got == x + y, spec.name
        assert total.counters.instructions == (
            a.counters.instructions + b.counters.instructions)

    def test_merged_obeys_every_fields_rule(self):
        context = {spec.name for spec in dataclasses.fields(ServeReport)} - {
            spec.name for spec in dataclasses.fields(StepTotals)}
        assert context == set(_CONTEXT_RULES), (
            "every ServeReport field is either an additive StepTotals "
            "counter or has a pooling rule listed in _CONTEXT_RULES")
        a_totals, b_totals = _distinct_totals(2), _distinct_totals(3)
        a = ServeReport(**vars(a_totals), **{
            name: rule[0] for name, rule in _CONTEXT_RULES.items()})
        b = ServeReport(**vars(b_totals), **{
            name: rule[1] for name, rule in _CONTEXT_RULES.items()})
        merged = ServeReport.merged([a, b])
        for name, (_, _, expected) in _CONTEXT_RULES.items():
            assert getattr(merged, name) == expected, name
        summed = a_totals + b_totals
        for spec in dataclasses.fields(StepTotals):
            expected = getattr(summed, spec.name)
            if spec.name == "shard_utilization_sums":
                expected = []  # a per-replica detail, dropped from the pool
            assert getattr(merged, spec.name) == expected, spec.name


class TestClusterReportShape:
    def _cluster_report(self):
        summaries = [
            ReplicaSummary(index=0, pool="unified", spawned_at=0.0,
                           retired_at=None,
                           report=_report([_request(0, 0.1, itls=[0.01])])),
            ReplicaSummary(index=1, pool="unified", spawned_at=0.5,
                           retired_at=2.0,
                           report=_report([_request(1, 0.4)])),
        ]
        return ClusterReport(
            pooled=ServeReport.merged([s.report for s in summaries]),
            replicas=summaries,
            route="least-loaded",
            routing={"route": "least-loaded", "n_decisions": 2},
            kv_transfer_bytes=1024,
        )

    def test_as_dict_extends_the_engine_schema(self):
        report = self._cluster_report()
        payload = report.as_dict()
        # Single-engine consumers keep working on the pooled view...
        for key in ("n_requests", "ttft_p95_ms", "itl_p99_ms", "tiers",
                    "throughput_tokens_per_second"):
            assert key in payload
        # ...and the cluster section rides alongside.
        cluster = payload["cluster"]
        assert cluster["n_replicas"] == 2
        assert cluster["route"] == "least-loaded"
        assert cluster["kv_transfer_bytes"] == 1024
        assert [row["replica"] for row in cluster["replicas"]] == [0, 1]
        assert cluster["replicas"][1]["retired_at"] == 2.0

    def test_peak_replicas_excludes_retired(self):
        report = self._cluster_report()
        assert report.n_replicas == 2
        assert report.peak_replicas == 1

    def test_replica_summary_row_reports_latency_percentiles(self):
        row = self._cluster_report().replicas[0].as_dict()
        assert row["pool"] == "unified"
        assert row["n_requests"] == 1
        assert row["ttft_p50_ms"] == pytest.approx(100.0)
        assert row["itl_p99_ms"] == pytest.approx(10.0)
