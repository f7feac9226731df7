"""The benchmark drivers as a library (:mod:`repro.bench`).

The CLI smoke jobs only ever see the drivers pass; these tests call them
directly, including the failure branches no command line can reach.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import bench
from repro.api import (CompletionRequest, EngineConfig, SamplingParams,
                       SpecConfig)
from repro.cli import main
from repro.cluster import ClusterConfig
from repro.workloads import default_suite, mixed_chat_suite


def test_engine_serve_matches_one_replica_cluster():
    """One ``serve`` surface: same arguments, same accessors, same streams."""
    config = EngineConfig(model="test-small", paged=True)
    llm = config.build_llm()
    suite = list(default_suite(n_prompts=4, max_new_tokens=6, seed=1))
    arrivals = [i * 1e-4 for i in range(len(suite))]
    params = SamplingParams(ignore_eos=True)

    engine = config.build_engine(llm=llm)
    report = engine.serve(suite, params, arrivals=arrivals)
    cluster = ClusterConfig(engine=config, n_replicas=1).build_cluster(llm=llm)
    cluster.serve(suite, params, arrivals=arrivals)

    assert engine.streams() == cluster.streams()
    assert all(len(stream) == 6 for stream in engine.streams())
    results = engine.results()
    assert [r.request_id for r in results] == [f"req-{i}" for i in range(4)]
    assert ([r.generated_tokens for r in results]
            == [r.generated_tokens for r in cluster.results()])
    assert report.n_requests == len(suite)

    with pytest.raises(ValueError, match="arrivals"):
        config.build_engine(llm=llm).serve(suite, params, arrivals=[0.0])


def test_stream_mismatches_names_each_differing_request():
    suite = list(default_suite(n_prompts=3, max_new_tokens=4, seed=0))
    streams = [[1, 2], [3, 4], [5]]
    assert bench.stream_mismatches(suite, streams, streams, "a and b") == []
    messages = bench.stream_mismatches(
        suite, streams, [[1, 2], [3, 9], [6]], "a and b")
    assert len(messages) == 2
    for message, workload in zip(messages, suite[1:]):
        assert repr(workload.prompt[:40]) in message
        assert "a and b token streams differ" in message


def test_serve_bench_checks_every_feature_against_the_plain_twin():
    config = EngineConfig(
        model="test-small", max_batch_tokens=64, paged=True,
        chunked_prefill=True, prefill_chunk_tokens=8, policy="priority",
        speculative=SpecConfig(method="ngram"))
    suite = mixed_chat_suite(n_chats=4, n_documents=1, chat_new_tokens=8,
                             seed=0)
    result = bench.serve_bench(config, suite, ignore_eos=True,
                               stagger_mixed=True, check=True)
    assert result.failures == []
    assert result.plain_report.policy == "fifo"
    assert not result.plain_report.chunked_prefill
    assert result.aggregate["token_identity_check"] == "pass"
    assert "quant_check" not in result.aggregate
    assert result.aggregate["speculative_speedup"] > 0
    assert result.aggregate["speedup"] == pytest.approx(
        result.report.throughput_tokens_per_second
        / result.sequential_throughput)
    assert ([list(c.choices[0].token_ids) for c in result.completions]
            == result.engine.streams())
    assert set(result.payload) == {"requests", "completions", "aggregate"}


def test_failed_quant_gate_is_not_a_token_mismatch():
    """An unreachable agreement floor fails the quant gate and only it."""
    result = bench.serve_bench(
        EngineConfig(model="test-small", seed=0, quant="int8"),
        default_suite(n_prompts=3, max_new_tokens=8, seed=0),
        ignore_eos=True, check=True, min_agreement=1.01)
    assert result.mismatches == []
    assert len(result.quant_failures) == 1
    assert "below the required 1.01" in result.quant_failures[0]
    assert result.aggregate["token_identity_check"] == "pass"
    assert result.aggregate["quant_check"] == "fail"


def test_cluster_bench_disaggregated_matches_single_engine():
    engine = EngineConfig(model="test-small", paged=True, max_batch_tokens=64)
    suite = default_suite(n_prompts=5, max_new_tokens=6, seed=0)
    result = bench.cluster_bench(
        ClusterConfig(engine=engine, n_replicas=3, disaggregate=True,
                      n_prefill_replicas=1),
        suite, ignore_eos=True, check=True)
    assert result.mismatches == []
    assert result.payload["token_identity_check"] == "pass"
    assert result.report.kv_transfers == len(suite)
    assert result.report.pooled.n_requests == len(suite)


def test_compile_bench_json_stdout_reports_the_unmet_floor(capsys):
    """``--json -`` used to fail with empty stderr and no reason."""
    code = main([
        "compile-bench", "--model", "test-small", "--requests", "2",
        "--prompt-words", "12", "--tokens", "8", "--ctx-bucket", "8",
        "--min-speedup", "100", "--json", "-",
    ])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 1
    assert payload["verdict"] == "fail"
    assert len(payload["failures"]) == 1
    assert "below the required 100.00x" in payload["failures"][0]
    assert f"FAIL: {payload['failures'][0]}" in captured.err


def test_cli_check_exits_nonzero_on_an_injected_mismatch(monkeypatch, capsys):
    real = bench.serve_bench

    def drifting(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(
            result, mismatches=["MISMATCH on 'injected'...: token streams "
                                "differ"])

    monkeypatch.setattr(bench, "serve_bench", drifting)
    code = main(["serve-bench", "--model", "test-small", "--requests", "2",
                 "--tokens", "4", "--check"])
    captured = capsys.readouterr()
    assert code == 1
    assert "MISMATCH on 'injected'" in captured.err
    assert "token identity check   1 MISMATCHES" in captured.out


def test_api_bench_checks_each_stream_against_its_batch_twin():
    requests = [CompletionRequest(prompt=prompt, max_tokens=5, seed=i,
                                  stream=stream)
                for i, (prompt, stream) in enumerate(
                    [("Once upon a time", True), ("The little dog", False)])]
    result = bench.api_bench(EngineConfig(model="test-small"), requests,
                             check=True)
    streamed, batch = result.payload["completions"]
    assert result.mismatches == []
    assert streamed["match"] and batch["match"]
    assert streamed["text"] == streamed["batch_text"]
    assert streamed["n_chunks"] >= 1 and "token_ids" not in batch
    assert result.payload["aggregate"]["n_requests"] == 2


def test_api_bench_reports_a_stream_that_differs_from_its_twin(monkeypatch):
    """Same text, one token fewer: the token ids alone must catch it."""
    real = bench.CompletionService.create

    def short(self, request):
        response = real(self, request)
        choice = dataclasses.replace(response.choices[0],
                                     token_ids=response.choices[0].token_ids[:-1])
        return dataclasses.replace(response, choices=(choice,))

    monkeypatch.setattr(bench.CompletionService, "create", short)
    result = bench.api_bench(
        EngineConfig(model="test-small"),
        [CompletionRequest(prompt="Once upon a time", max_tokens=5,
                           stream=True)], check=True)
    assert len(result.mismatches) == 1
    assert result.mismatches[0].startswith("MISMATCH on 'Once upon a time':")
    record = result.payload["completions"][0]
    assert record["match"] is False
    assert record["text"] == record["batch_text"]
