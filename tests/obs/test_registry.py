"""Unit tests for the metrics registry (repro.obs.registry)."""

from __future__ import annotations

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        assert gauge.value == 10.0
        gauge.set(3)
        assert gauge.value == 3.0

    def test_histogram_cumulative_buckets(self):
        hist = Histogram(buckets=(1.0, 4.0, 16.0))
        for value in (0.5, 2.0, 3.0, 100.0):
            hist.observe(value)
        assert hist.sum == pytest.approx(105.5)
        assert hist.count == 4
        assert hist.cumulative() == [
            (1.0, 1), (4.0, 3), (16.0, 3), (float("inf"), 4)]

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(4.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0, 2.0))


class TestRegistry:
    def test_same_name_and_labels_share_one_child(self):
        registry = MetricsRegistry()
        a = registry.counter("speedllm_steps_total",
                             labels={"track": "engine-0"})
        b = registry.counter("speedllm_steps_total",
                             labels={"track": "engine-0"})
        assert a is b
        # Label insertion order is irrelevant — keys are sorted.
        c = registry.counter("speedllm_x_total",
                             labels={"a": "1", "b": "2"})
        d = registry.counter("speedllm_x_total",
                             labels={"b": "2", "a": "1"})
        assert c is d

    def test_distinct_labels_get_distinct_children(self):
        registry = MetricsRegistry()
        a = registry.gauge("speedllm_queue_depth",
                           labels={"track": "replica-0"})
        b = registry.gauge("speedllm_queue_depth",
                           labels={"track": "replica-1"})
        assert a is not b
        a.set(3)
        assert b.value == 0.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("speedllm_steps_total")
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            registry.gauge("speedllm_steps_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "9lives", "has space", "dash-ed"):
            with pytest.raises(ValueError, match="invalid metric name"):
                registry.counter(bad)

    def test_families_render_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.gauge("b_metric")
        registry.counter("a_metric_total")
        assert [line for line in registry.render().splitlines()
                if line.startswith("# TYPE")] == [
            "# TYPE a_metric_total counter", "# TYPE b_metric gauge"]


class TestRender:
    def test_text_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("speedllm_steps_total", "Steps executed.",
                         labels={"track": "engine-0"}).inc(7)
        registry.gauge("speedllm_kv_utilization", "KV pool fill.").set(0.5)
        text = registry.render()
        assert "# HELP speedllm_steps_total Steps executed." in text
        assert "# TYPE speedllm_steps_total counter" in text
        assert 'speedllm_steps_total{track="engine-0"} 7' in text
        assert "# TYPE speedllm_kv_utilization gauge" in text
        assert "speedllm_kv_utilization 0.5" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram("speedllm_step_batch_tokens")
        hist.observe(4)
        hist.observe(1000)
        text = registry.render()
        assert 'speedllm_step_batch_tokens_bucket{le="2"} 0' in text
        assert 'speedllm_step_batch_tokens_bucket{le="4"} 1' in text
        assert 'speedllm_step_batch_tokens_bucket{le="256"} 1' in text
        assert 'speedllm_step_batch_tokens_bucket{le="+Inf"} 2' in text
        assert "speedllm_step_batch_tokens_sum 1004" in text
        assert "speedllm_step_batch_tokens_count 2" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_as_dict_round_trips_to_json(self):
        import json

        registry = MetricsRegistry()
        registry.counter("speedllm_tokens_total",
                         labels={"track": "engine-0"}).inc(3)
        registry.histogram("speedllm_step_batch_tokens").observe(5)
        snapshot = registry.as_dict()
        assert snapshot["speedllm_tokens_total"]["type"] == "counter"
        assert snapshot["speedllm_tokens_total"]["samples"][
            '{track="engine-0"}'] == 3.0
        hist = snapshot["speedllm_step_batch_tokens"]["samples"]["{}"]
        assert hist["count"] == 1
        assert hist["buckets"]["+Inf"] == 1
        json.dumps(snapshot)  # must be JSON-serialisable as-is
