"""Chunked prefill: step-shape behavior and the latency acceptance bar.

Two layers are pinned:

* **Scheduler-level** — with ``chunked_prefill=True`` every prefilling
  request draws from one shared per-step budget of
  ``prefill_chunk_tokens`` positions, but *only* when the step carries
  decode slots (the throttle exists to bound in-flight inter-token
  latency; a pure-prefill step — cold start, post-drain — uses the full
  token budget so first tokens are not delayed).  Partial prefills
  resume where they stopped and only the true last prompt position asks
  for logits.
* **Engine-level (the PR's acceptance criterion)** — on a mixed
  chat + document workload with documents arriving mid-decode, chunked
  prefill plus priority scheduling cuts the pooled inter-token-latency
  p95 by at least 30 % versus monolithic-prefill FIFO, at equal or
  better throughput, with token streams identical between the two
  configurations.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import EngineConfig, SamplingParams
from repro.core.speedllm import SpeedLLM
from repro.serve import SchedulerConfig
from repro.serve.request import Request, RequestState
from repro.serve.scheduler import Scheduler
from repro.workloads import mixed_chat_suite


# ----------------------------------------------------------------------
# Scheduler-level step shape
# ----------------------------------------------------------------------
def make_scheduler(micro_config, **overrides):
    defaults = dict(max_batch_tokens=16, kv_budget_bytes=1 << 20)
    defaults.update(overrides)
    return Scheduler(micro_config, SchedulerConfig(**defaults))


def make_request(request_id, n_prompt, max_new_tokens=4):
    return Request(request_id=request_id,
                   prompt_tokens=list(range(1, n_prompt + 1)),
                   max_new_tokens=max_new_tokens)


def start_decoding(request):
    request.state = RequestState.DECODE
    request.next_pos = request.n_prompt
    request.pending_token = 3


class TestChunkedStepShape:
    def admit(self, scheduler, *requests):
        for request in requests:
            scheduler.submit(request)
        admitted = scheduler.admit(now=0.0)
        assert len(admitted) == len(requests)
        return admitted

    def test_prefill_throttled_alongside_decode(self, micro_config):
        scheduler = make_scheduler(micro_config, chunked_prefill=True,
                                   prefill_chunk_tokens=3)
        decoder, prefiller = self.admit(
            scheduler, make_request("d", n_prompt=4),
            make_request("p", n_prompt=10))
        start_decoding(decoder)
        slots = scheduler.build_step()
        by_request = {}
        for slot in slots:
            by_request.setdefault(slot.request_id, []).append(slot)
        assert len(by_request["d"]) == 1       # the decode slot
        assert len(by_request["p"]) == 3       # capped by the chunk budget
        assert prefiller.prefill_remaining == 10

    def test_chunk_budget_is_shared_not_per_request(self, micro_config):
        scheduler = make_scheduler(micro_config, chunked_prefill=True,
                                   prefill_chunk_tokens=3)
        decoder, p0, p1 = self.admit(
            scheduler, make_request("d", n_prompt=4),
            make_request("p0", n_prompt=10), make_request("p1", n_prompt=10))
        start_decoding(decoder)
        slots = scheduler.build_step()
        prefill_slots = [s for s in slots if s.request_id != "d"]
        assert len(prefill_slots) == 3  # 3 total, not 3 each

    def test_cold_start_prefill_is_unthrottled(self, micro_config):
        # No decode slots in the step: the throttle would only delay
        # first tokens, so the full token budget applies.
        scheduler = make_scheduler(micro_config, chunked_prefill=True,
                                   prefill_chunk_tokens=3)
        (prefiller,) = self.admit(scheduler, make_request("p", n_prompt=10))
        slots = scheduler.build_step()
        assert len(slots) == 10
        assert all(s.request_id == "p" for s in slots)

    def test_partial_prefill_resumes_and_defers_logits(self, micro_config):
        scheduler = make_scheduler(micro_config, chunked_prefill=True,
                                   prefill_chunk_tokens=4)
        decoder, prefiller = self.admit(
            scheduler, make_request("d", n_prompt=4),
            make_request("p", n_prompt=10))
        start_decoding(decoder)
        seen = []
        for _ in range(3):  # 10 positions at 4 per step
            slots = [s for s in scheduler.build_step()
                     if s.request_id == "p"]
            seen.extend(slots)
            prefiller.next_pos += len(slots)
        assert [s.pos for s in seen] == list(range(10))
        # Only the genuine last prompt position computes logits.
        assert [s.pos for s in seen if s.need_logits] == [9]
        assert prefiller.prefill_remaining == 0

    def test_legacy_regime_lets_long_prompt_fill_the_step(self,
                                                          micro_config):
        # The stall chunked prefill removes: monolithic prefill rides
        # the same step as the decode and inflates it to 11 positions.
        scheduler = make_scheduler(micro_config, prefill_chunk=16)
        decoder, _ = self.admit(scheduler, make_request("d", n_prompt=4),
                                make_request("p", n_prompt=10))
        start_decoding(decoder)
        assert len(scheduler.build_step()) == 11


class TestChunkedConfig:
    def test_chunk_tokens_requires_chunked_prefill(self):
        with pytest.raises(ValueError,
                           match="requires chunked_prefill=True"):
            SchedulerConfig(prefill_chunk_tokens=4)

    def test_chunk_tokens_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            SchedulerConfig(chunked_prefill=True, prefill_chunk_tokens=0)

    def test_step_budget_defaults_to_half_the_batch(self):
        assert SchedulerConfig(max_batch_tokens=16,
                               chunked_prefill=True).step_prefill_budget == 8
        assert SchedulerConfig(max_batch_tokens=1,
                               chunked_prefill=True).step_prefill_budget == 1
        assert SchedulerConfig(chunked_prefill=True,
                               prefill_chunk_tokens=3).step_prefill_budget == 3

    def test_engine_config_wires_the_scheduler_slice(self):
        config = EngineConfig(model="test-small", chunked_prefill=True,
                              prefill_chunk_tokens=4, policy="fairness",
                              fairness_aging_s=0.2)
        scheduler_config = config.scheduler_config()
        assert scheduler_config.chunked_prefill
        assert scheduler_config.prefill_chunk_tokens == 4
        assert scheduler_config.policy == "fairness"
        assert scheduler_config.fairness_aging_s == 0.2


# ----------------------------------------------------------------------
# Engine-level acceptance: the PR's headline number
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def llm(small_checkpoint, tiny_tokenizer):
    return SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                    tokenizer=tiny_tokenizer)


def _serve(config, llm, workloads, arrivals):
    engine = config.build_engine(llm=llm)
    report = engine.serve(workloads, SamplingParams(ignore_eos=True),
                          arrivals=arrivals)
    return report, engine.streams()


class TestMixedWorkloadAcceptance:
    """Chunked prefill + priority vs. monolithic FIFO on chats + docs."""

    @pytest.fixture(scope="class")
    def results(self, llm):
        # The configuration the serve-bench CLI ships as its --mixed
        # default: a large enough batch that chat decodes ride together,
        # monolithic prefill in the baseline (prefill_chunk covers the
        # longest document prompt), a small shared chunk budget in the
        # treatment.
        base = EngineConfig(model="test-small", max_batch_tokens=64,
                            prefill_chunk=64)
        chunked = dataclasses.replace(base, chunked_prefill=True,
                                      prefill_chunk_tokens=8,
                                      policy="priority")
        suite = mixed_chat_suite(n_chats=8, n_documents=3,
                                 chat_new_tokens=32,
                                 document_new_tokens=8, seed=23)
        for workload in suite:
            assert (len(llm.encode(workload.prompt))
                    + workload.max_new_tokens
                    <= llm.model_config.max_seq_len)

        # Probe: mean step time of the plain run, to land each document
        # arrival a few steps into the chats' decode phase — the stall
        # only exists when a long prompt arrives mid-decode.
        probe, _ = _serve(base, llm, suite, [0.0] * len(suite))
        step_s = probe.makespan_seconds / max(1, probe.n_steps)
        timed, n_docs = [], 0
        for workload in suite:
            if workload.priority > 0:
                timed.append((workload, (6 + 5 * n_docs) * step_s))
                n_docs += 1
            else:
                timed.append((workload, 0.0))
        timed.sort(key=lambda pair: pair[1])
        workloads = [w for w, _ in timed]
        arrivals = [t for _, t in timed]

        baseline_report, baseline_streams = _serve(base, llm, workloads,
                                                   arrivals)
        chunked_report, chunked_streams = _serve(chunked, llm, workloads,
                                                 arrivals)
        return (baseline_report, baseline_streams,
                chunked_report, chunked_streams)

    def test_itl_p95_reduced_at_least_30_percent(self, results):
        baseline_report, _, chunked_report, _ = results
        baseline_p95 = baseline_report.itl_summary().p95
        chunked_p95 = chunked_report.itl_summary().p95
        assert baseline_p95 > 0
        reduction = 1.0 - chunked_p95 / baseline_p95
        assert reduction >= 0.30, (
            f"ITL p95 only improved {reduction:.1%} "
            f"({baseline_p95 * 1e3:.3f} ms -> {chunked_p95 * 1e3:.3f} ms)")

    def test_throughput_is_equal_or_better(self, results):
        baseline_report, _, chunked_report, _ = results
        assert (chunked_report.throughput_tokens_per_second
                >= 0.999 * baseline_report.throughput_tokens_per_second)

    def test_token_streams_identical(self, results):
        _, baseline_streams, _, chunked_streams = results
        assert chunked_streams == baseline_streams

    def test_reports_carry_scheduling_metadata(self, results):
        baseline_report, _, chunked_report, _ = results
        assert baseline_report.policy == "fifo"
        assert not baseline_report.chunked_prefill
        assert chunked_report.policy == "priority"
        assert chunked_report.chunked_prefill
        assert chunked_report.tiers == [0, 1]
        breakdown = chunked_report.tier_breakdown()
        assert breakdown[0]["n_requests"] == 8
        assert breakdown[1]["n_requests"] == 3
        for row in breakdown.values():
            assert row["itl_p99_ms"] >= row["itl_p50_ms"] >= 0.0
