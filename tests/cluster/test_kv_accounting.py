"""KV admission accounting is written once, so every mode agrees.

Regressions of two drifts between the reservation and paged copies of
the admission code: a request no replica can ever hold used to be
discovered mid-co-simulation (a bare ``ValueError`` out of ``run()``),
and a disaggregated handoff adoption used to count as a prefill (and
its decode-side transfer savings as prefill prefix hits) while a
reservation prefill counted as nothing.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, FrontendError, SamplingParams
from repro.api.errors import KVCapacityError
from repro.cluster import ClusterConfig
from repro.llama.kv_cache import KVCache
from repro.workloads import default_suite, shared_prefix_suite

PARAMS = SamplingParams(ignore_eos=True)


def test_unadmittable_request_is_refused_at_submit(llm, small_config):
    engine = EngineConfig(
        model="test-small", paged=True, block_size=8,
        kv_budget_bytes=3 * KVCache.bytes_per_block(small_config, 8))
    cluster = ClusterConfig(engine=engine, n_replicas=2).build_cluster(llm=llm)
    ok = cluster.submit("the cat", SamplingParams(max_tokens=4,
                                                   ignore_eos=True))
    with pytest.raises(KVCapacityError,
                       match="can never be admitted") as excinfo:
        cluster.submit("the dog sat", SamplingParams(max_tokens=40,
                                                     ignore_eos=True),
                       arrival_time=1e-4)
    assert isinstance(excinfo.value, FrontendError)
    assert isinstance(excinfo.value, ValueError)
    # The refusal left nothing behind: what was accepted still drains.
    cluster.run()
    assert [(r.request_id, r.finish_reason) for r in cluster.results()] == [
        (ok, "length")]


def test_single_engine_refusal_is_typed(llm, small_config):
    engine = EngineConfig(
        model="test-small",
        kv_budget_bytes=KVCache.projected_nbytes(small_config, 8),
    ).build_engine(llm=llm)
    with pytest.raises(KVCapacityError, match="can never be admitted"):
        engine.submit("the dog sat", SamplingParams(max_tokens=40))
    assert not engine.scheduler.has_work


def test_handoff_adoption_is_not_a_prefill(llm):
    engine = EngineConfig(model="test-small", paged=True, block_size=8)
    cluster = ClusterConfig(
        engine=engine, n_replicas=4, route="affinity",
        disaggregate=True, n_prefill_replicas=2,
    ).build_cluster(llm=llm)
    suite = list(shared_prefix_suite(8, system_words=40, tail_words=3,
                                     max_new_tokens=6, seed=1, n_groups=2))
    report = cluster.serve(suite, PARAMS)
    pooled = report.pooled
    assert report.kv_transfers == len(suite)
    # Every prompt was prefilled exactly once (on a prefill replica) ...
    assert pooled.total_prefill_tokens == sum(
        len(r.prompt_tokens) for r in pooled.requests)
    # ... and what the decode side found cached saved wire transfer, not
    # prefill: it is reported there and nowhere else.
    assert report.kv_transfer_saved_positions > 0
    assert pooled.prefix_hit_tokens == sum(
        r.prefix_hit_tokens for r in pooled.requests)
    assert pooled.prefix_hit_tokens < report.kv_transfer_saved_positions


@pytest.mark.parametrize("paged", [False, True], ids=["reservation", "paged"])
def test_every_mode_counts_its_prefill_tokens(llm, paged):
    engine = EngineConfig(model="test-small", paged=paged,
                          block_size=8).build_engine(llm=llm)
    report = engine.serve(list(default_suite(4, 8, seed=0)), SamplingParams())
    assert report.n_preemptions == 0
    assert report.total_prefill_tokens == sum(
        len(r.prompt_tokens) for r in report.requests)
