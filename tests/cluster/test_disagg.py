"""Behaviour of the disaggregated prefill/decode path.

Token identity of this path is pinned in ``test_identity``; these tests
cover the *accounting*: every handoff is priced on the wire, decode-side
prefix hits reduce the transferred bytes, stub requests are never
double-counted, and request timestamps survive the handoff.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, SamplingParams
from repro.cluster import ClusterConfig
from repro.llama.kv_cache import KVCache
from repro.llama.quantization import QuantSpec
from repro.workloads import shared_prefix_suite

PARAMS = SamplingParams(ignore_eos=True)


def _suite(max_new_tokens=8, n_groups=1):
    return list(shared_prefix_suite(n_prompts=6, n_groups=n_groups,
                                    system_words=32, tail_words=3,
                                    max_new_tokens=max_new_tokens, seed=3))


def _run(llm, engine, **cluster_kwargs):
    config = ClusterConfig(engine=engine, disaggregate=True,
                           n_prefill_replicas=1, **cluster_kwargs)
    cluster = config.build_cluster(llm=llm)
    report = cluster.serve(_suite(), PARAMS)
    return cluster, report


class TestKvTransferAccounting:
    def test_every_handoff_is_priced(self, llm):
        engine = EngineConfig(model="test-small", max_batch_tokens=16,
                              paged=True, block_size=8)
        cluster, report = _run(llm, engine, n_replicas=2)
        # ignore_eos + a multi-token budget: every request hands off.
        assert report.kv_transfers == len(_suite())
        assert report.kv_transfer_bytes > 0
        assert report.kv_transfer_seconds > 0.0
        assert report.disaggregated

    def test_decode_prefix_hits_reduce_wire_bytes(self, llm):
        # All six prompts share one long preamble and land on the same
        # decode replica, so every adoption after the first serves the
        # shared leading blocks from the decode pool instead of the wire.
        paged = EngineConfig(model="test-small", max_batch_tokens=16,
                             paged=True, block_size=8)
        _, paged_report = _run(llm, paged, n_replicas=2)
        assert paged_report.kv_transfer_saved_positions > 0
        # The reservation scheduler has no prefix cache: same suite, same
        # handoffs, but every position rides the wire.
        reservation = EngineConfig(model="test-small", max_batch_tokens=16)
        _, full_report = _run(llm, reservation, n_replicas=2)
        assert full_report.kv_transfer_saved_positions == 0
        assert full_report.kv_transfers == paged_report.kv_transfers
        assert paged_report.kv_transfer_bytes < full_report.kv_transfer_bytes

    @pytest.mark.parametrize("paged", [False, True], ids=["reserved", "paged"])
    @pytest.mark.parametrize("kv", [None, QuantSpec(bits=8, group_size=64)],
                             ids=["fp32-kv", "int8-kv"])
    def test_wire_bytes_are_the_stored_kv_bytes(self, kv, paged):
        """A handoff carries the KV as the cache stores it: a quantised
        cache ships its integers and scales, not float32 vectors."""
        quant = {} if kv is None else {"quant": "int8", "quant_kv": True}
        engine = EngineConfig(model="test-small", max_batch_tokens=16,
                              paged=paged, block_size=8, **quant)
        cluster, report = _run(None, engine, n_replicas=2)
        assert report.kv_transfers == len(_suite())
        positions = sum(len(m.prompt_tokens) for m in cluster.results())
        wire = positions - report.kv_transfer_saved_positions
        assert wire > 0 and (report.kv_transfer_saved_positions > 0) == paged
        assert report.kv_transfer_bytes == wire * KVCache.bytes_per_position(
            cluster.replicas[0].engine.model_config, kv)

    def test_one_token_budget_never_hands_off(self, llm):
        engine = EngineConfig(model="test-small", max_batch_tokens=16,
                              paged=True, block_size=8)
        config = ClusterConfig(engine=engine, n_replicas=2,
                               disaggregate=True, n_prefill_replicas=1)
        cluster = config.build_cluster(llm=llm)
        report = cluster.serve(_suite(max_new_tokens=1), PARAMS)
        assert report.kv_transfers == 0
        assert report.kv_transfer_bytes == 0
        # The stub was the whole request: it stays on the prefill replica.
        by_pool = {s.pool: s for s in report.replicas}
        assert by_pool["prefill"].report.n_requests == len(_suite())
        assert by_pool["decode"].report.n_requests == 0


class TestPooledAccounting:
    def test_stub_requests_are_not_double_counted(self, llm):
        engine = EngineConfig(model="test-small", max_batch_tokens=16,
                              paged=True, block_size=8)
        cluster, report = _run(llm, engine, n_replicas=3)
        suite = _suite()
        assert report.pooled.n_requests == len(suite)
        assert (report.pooled.total_generated_tokens
                == sum(w.max_new_tokens for w in suite))
        # Handed-off requests are reported by the decode pool end to end.
        decode_requests = sum(s.report.n_requests for s in report.replicas
                              if s.pool == "decode")
        assert decode_requests == len(suite)

    def test_timestamps_survive_the_handoff(self, llm):
        engine = EngineConfig(model="test-small", max_batch_tokens=16,
                              paged=True, block_size=8)
        cluster, report = _run(llm, engine, n_replicas=2)
        for metrics in cluster.results():
            # TTFT was measured on the prefill replica; the decode side
            # must report it, not restart the clock at adoption.
            assert metrics.time_to_first_token_s > 0.0
            assert metrics.latency_s >= metrics.time_to_first_token_s
            assert metrics.finish_reason == "length"

    def test_report_surfaces_both_router_stats(self, llm):
        engine = EngineConfig(model="test-small", max_batch_tokens=16,
                              paged=True, block_size=8)
        _, report = _run(llm, engine, n_replicas=3, route="least-loaded")
        routing = report.routing
        assert routing["n_decisions"] == len(_suite())
        # Handoff delivery decisions are counted apart from admission.
        assert routing["decode_pool"]["n_decisions"] == report.kv_transfers
        payload = report.as_dict()
        assert payload["cluster"]["kv_transfers"] == report.kv_transfers
