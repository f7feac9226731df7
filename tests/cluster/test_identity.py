"""Token identity: the cluster never changes what a request generates.

Every request served through the cluster — under any routing policy,
through the disaggregated prefill/decode path, and across autoscaling
events — must produce the byte-identical token stream the same request
produces on a single engine built from the same ``EngineConfig``.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, SamplingParams
from repro.cluster import ClusterConfig
from repro.workloads import multi_turn_chat_suite, shared_prefix_suite

ENGINE_SHAPES = [
    pytest.param({}, id="reservation"),
    pytest.param({"paged": True, "block_size": 8}, id="paged"),
    pytest.param({"paged": True, "block_size": 8, "chunked_prefill": True,
                  "prefill_chunk_tokens": 4}, id="paged-chunked"),
]

GREEDY = SamplingParams(max_tokens=8, ignore_eos=True)
SEEDED = SamplingParams(max_tokens=8, temperature=0.9, top_p=0.9, seed=11,
                        ignore_eos=True)


def _suite():
    return list(shared_prefix_suite(n_prompts=8, n_groups=4, system_words=16,
                                    tail_words=3, max_new_tokens=8, seed=11))


def _cluster_streams(llm, cluster_config, workloads, params, arrivals=None):
    cluster = cluster_config.build_cluster(llm=llm)
    cluster.serve(workloads, params, arrivals=arrivals)
    return cluster.streams()


@pytest.mark.parametrize("overrides", ENGINE_SHAPES)
@pytest.mark.parametrize("route", ["rr", "least-loaded", "affinity"])
def test_routes_match_single_engine(llm, single_engine_streams, overrides,
                                    route):
    config = EngineConfig(model="test-small", max_batch_tokens=16,
                          **overrides)
    workloads = _suite()
    reference = single_engine_streams(config, workloads, GREEDY)
    streams = _cluster_streams(
        llm, ClusterConfig(engine=config, n_replicas=3, route=route),
        workloads, GREEDY)
    assert streams == reference


@pytest.mark.parametrize("params", [GREEDY, SEEDED],
                         ids=["greedy", "seeded-stochastic"])
def test_disaggregated_path_matches_single_engine(llm, single_engine_streams,
                                                  params):
    # Seeded stochastic sampling is the sharp edge: the sampler's RNG
    # stream must continue uninterrupted across the KV handoff.
    config = EngineConfig(model="test-small", max_batch_tokens=16,
                          paged=True, block_size=8)
    workloads = _suite()
    reference = single_engine_streams(config, workloads, params)
    streams = _cluster_streams(
        llm,
        ClusterConfig(engine=config, n_replicas=3, route="least-loaded",
                      disaggregate=True, n_prefill_replicas=1),
        workloads, params)
    assert streams == reference


def test_disaggregated_reservation_mode_matches(llm, single_engine_streams):
    config = EngineConfig(model="test-small", max_batch_tokens=16)
    workloads = _suite()
    reference = single_engine_streams(config, workloads, GREEDY)
    streams = _cluster_streams(
        llm,
        ClusterConfig(engine=config, n_replicas=2, route="rr",
                      disaggregate=True, n_prefill_replicas=1),
        workloads, GREEDY)
    assert streams == reference


def test_autoscaled_run_matches_single_engine(llm, single_engine_streams):
    config = EngineConfig(model="test-small", max_batch_tokens=16,
                          paged=True, block_size=8)
    workloads = _suite() + _suite()
    reference = single_engine_streams(config, workloads, GREEDY)
    streams = _cluster_streams(
        llm,
        ClusterConfig(engine=config, n_replicas=1, route="least-loaded",
                      autoscale=True, scale_up_queue_depth=3,
                      scale_down_queue_depth=0, max_replicas=4),
        workloads, GREEDY)
    assert streams == reference


def test_staggered_arrivals_match_single_engine(llm, single_engine_streams):
    config = EngineConfig(model="test-small", max_batch_tokens=16,
                          paged=True, block_size=8)
    workloads = list(multi_turn_chat_suite(n_sessions=3, n_turns=2,
                                           max_new_tokens=6, seed=5))
    arrivals = [i * 1e-4 for i in range(len(workloads))]
    reference = single_engine_streams(config, workloads, GREEDY,
                                      arrivals=arrivals)
    streams = _cluster_streams(
        llm,
        ClusterConfig(engine=config, n_replicas=2, route="affinity"),
        workloads, GREEDY, arrivals=arrivals)
    assert streams == reference


def test_results_preserve_submission_order(llm):
    config = EngineConfig(model="test-small", max_batch_tokens=16)
    workloads = _suite()
    cluster = ClusterConfig(engine=config, n_replicas=3,
                            route="rr").build_cluster(llm=llm)
    cluster.serve(workloads, GREEDY)
    results = cluster.results()
    assert len(results) == len(workloads)
    assert [r.prompt for r in results] == [w.prompt for w in workloads]


@pytest.mark.parametrize("disaggregate", [False, True],
                         ids=["unified", "disaggregated"])
def test_each_prompt_is_tokenised_once(llm, monkeypatch, disaggregate):
    """The cluster encodes a prompt to validate and route it, and hands
    the replica (prefill stubs included) those tokens, not the string."""
    encoded = []
    encode = llm.tokenizer.encode

    def counting(text, *args, **kwargs):
        encoded.append(text)
        return encode(text, *args, **kwargs)

    monkeypatch.setattr(llm.tokenizer, "encode", counting)
    workloads = _suite()
    cluster = ClusterConfig(
        engine=EngineConfig(model="test-small", max_batch_tokens=16,
                            paged=True, block_size=8),
        n_replicas=3, disaggregate=disaggregate).build_cluster(llm=llm)
    report = cluster.serve(workloads, GREEDY)
    assert report.pooled.n_requests == len(workloads)
    assert sorted(encoded) == sorted(w.prompt for w in workloads)
