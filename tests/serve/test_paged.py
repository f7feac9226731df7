"""End-to-end tests for paged-KV serving (repro.serve + repro.kvpool).

The acceptance bar for the paged scheduler:

* outputs stay token-identical to sequential ``SpeedLLM.generate`` on
  ordinary (non-shared) workloads — paging changes memory layout, never
  numerics;
* on shared-prefix workloads it admits strictly more concurrent requests
  and delivers higher throughput than the reservation scheduler, with a
  non-zero prefix-hit rate;
* preemption (recompute-on-readmit) is invisible in the tokens.
"""

from __future__ import annotations

import pytest

from repro.api import SamplingParams
from repro.core.speedllm import SpeedLLM
from repro.llama.kv_cache import KVCache
from repro.serve import SchedulerConfig, ServingEngine
from repro.serve.request import Request, RequestState
from repro.serve.scheduler import Scheduler

PROMPTS = [
    "Once upon a time",
    "Lily and Tom went to the park",
    "The little dog was happy",
    "One day a bird found a shiny stone",
]

SYSTEM = ("Once upon a time there was a little girl who lived near the "
          "big forest")
TAILS = ["and a dog", "and a cat", "and a bird", "and a fish",
         "and a bear", "and a fox"]
SHARED_PROMPTS = [f"{SYSTEM} {tail}" for tail in TAILS]


@pytest.fixture(scope="module")
def llm(small_checkpoint, tiny_tokenizer):
    return SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                    tokenizer=tiny_tokenizer)


def paged_config(**overrides):
    defaults = dict(max_batch_tokens=16, paged=True, block_tokens=8,
                    kv_budget_bytes=1 << 20)
    defaults.update(overrides)
    return SchedulerConfig(**defaults)


class TestTokenIdentity:
    """Cross-config identity, driven by the shared matrix fixture from
    ``tests/conftest.py`` (reservation / paged / TP=2, each with chunked
    prefill on and off) instead of a hand-rolled paged-only check."""

    def test_greedy_matches_sequential(self, llm, engine_matrix_config,
                                       serve_streams, sequential_streams):
        sequential = sequential_streams(llm, PROMPTS)
        served = serve_streams(llm, engine_matrix_config, PROMPTS)
        assert served == sequential

    def test_stochastic_sampling_matches_with_same_seed(
        self, llm, engine_matrix_config, serve_streams, sequential_streams
    ):
        sequential = sequential_streams(llm, PROMPTS[:3], max_tokens=6,
                                        seed_base=21, temperature=0.8,
                                        top_p=0.9)
        served = serve_streams(llm, engine_matrix_config, PROMPTS[:3],
                               max_tokens=6, seed_base=21, temperature=0.8,
                               top_p=0.9)
        assert served == sequential


class TestPrefixSharing:
    def test_staggered_shared_prompt_hits(self, llm):
        """A request admitted after a same-prefix request prefilled skips
        the shared positions and still generates identical tokens."""
        first, second = SHARED_PROMPTS[0], SHARED_PROMPTS[1]
        sequential = {
            p: llm.generate(p, max_new_tokens=4).generated_tokens
            for p in (first, second)
        }
        engine = ServingEngine(llm, paged_config(block_tokens=4))
        engine.submit(first, SamplingParams(max_tokens=4))
        for _ in range(30):  # let the first request prefill
            engine.step()
        engine.submit(second, SamplingParams(max_tokens=4))
        report = engine.run(max_steps=2000)
        assert report.prefix_hit_tokens > 0
        results = {r.prompt: r for r in report.requests}
        assert results[second].prefix_hit_tokens > 0
        for prompt in (first, second):
            assert results[prompt].generated_tokens == sequential[prompt]

    def test_completed_request_prefix_survives_for_reuse(self, llm):
        """Blocks of a finished request park on the LRU list and are
        resurrected by a later identical-prefix submission."""
        engine = ServingEngine(llm, paged_config(block_tokens=4))
        engine.submit(SHARED_PROMPTS[0], SamplingParams(max_tokens=4))
        engine.run(max_steps=2000)
        engine.submit(SHARED_PROMPTS[2], SamplingParams(max_tokens=4))
        report = engine.run(max_steps=2000)
        assert report.prefix_hit_tokens > 0


class TestAcceptance:
    def test_paged_beats_reservation_on_shared_prefix_workload(self, llm):
        """The headline win: same KV byte budget, same workload — paged
        mode admits strictly more concurrent requests and delivers higher
        throughput, with a reported prefix-hit rate above zero."""
        config = llm.model_config
        new_tokens = 6
        worst = max(
            KVCache.projected_nbytes(
                config,
                min(len(llm.encode(p)) + new_tokens, config.max_seq_len),
            )
            for p in SHARED_PROMPTS
        )
        budget = 2 * worst  # reservation mode can hold two requests

        sequential = {
            p: llm.generate(p, max_new_tokens=new_tokens).generated_tokens
            for p in SHARED_PROMPTS
        }

        def serve(paged):
            engine = ServingEngine(llm, SchedulerConfig(
                max_batch_tokens=16, kv_budget_bytes=budget,
                paged=paged, block_tokens=8,
            ))
            for p in SHARED_PROMPTS:
                engine.submit(p, SamplingParams(max_tokens=new_tokens))
            return engine.run(max_steps=3000)

        reservation = serve(paged=False)
        paged = serve(paged=True)

        # Identical outputs under both policies.
        for report in (reservation, paged):
            for result in report.requests:
                assert result.generated_tokens == sequential[result.prompt]

        # Strictly more admitted concurrency and higher throughput.
        assert paged.peak_running > reservation.peak_running
        assert (paged.throughput_tokens_per_second
                > reservation.throughput_tokens_per_second)
        assert paged.prefix_hit_rate > 0.0
        assert paged.paged and not reservation.paged
        assert paged.mean_kv_utilization > 0.0


class TestPreemption:
    def test_tiny_pool_preempts_and_recovers(self, llm):
        """A pool too small for all requests forces preemption; the
        evicted request recomputes on readmission and its tokens match
        sequential generation exactly."""
        config = llm.model_config
        block_bytes = KVCache.bytes_per_block(config, 4)
        prompts = PROMPTS[:3]
        sequential = {
            p: llm.generate(p, max_new_tokens=10).generated_tokens
            for p in prompts
        }
        engine = ServingEngine(llm, paged_config(
            block_tokens=4,
            kv_budget_bytes=7 * block_bytes,
            watermark_fraction=0.0,
        ))
        requests = [engine.submit(p, SamplingParams(max_tokens=10))
                    for p in prompts]
        report = engine.run(max_steps=3000)
        assert report.n_preemptions > 0
        assert sum(r.n_preemptions for r in requests) == report.n_preemptions
        for result in report.requests:
            assert result.generated_tokens == sequential[result.prompt]


class TestPagedScheduler:
    """Scheduler-level paged behaviors, no accelerator involved."""

    def make_scheduler(self, config, n_blocks, block_tokens=4, **overrides):
        defaults = dict(
            paged=True,
            block_tokens=block_tokens,
            kv_budget_bytes=n_blocks * KVCache.bytes_per_block(
                config, block_tokens),
            watermark_fraction=0.0,
        )
        defaults.update(overrides)
        return Scheduler(config, SchedulerConfig(**defaults))

    def make_request(self, request_id, n_prompt=8, max_new_tokens=4):
        return Request(
            request_id=request_id,
            prompt_tokens=list(range(1, n_prompt + 1)),
            max_new_tokens=max_new_tokens,
        )

    def test_admission_requires_prompt_blocks_only(self, micro_config):
        # Two requests, each worst-case 24 positions (6 blocks) in a
        # 6-block pool: reservation admission would hold one at a time,
        # but paged admission only needs each prompt's 2 blocks up front,
        # so both admit immediately.
        scheduler = self.make_scheduler(micro_config, n_blocks=6)
        scheduler.submit(self.make_request("a", n_prompt=8,
                                           max_new_tokens=16))
        scheduler.submit(self.make_request("b", n_prompt=8,
                                           max_new_tokens=16))
        assert [r.request_id for r in scheduler.admit(now=0.0)] == ["a", "b"]

    def test_impossible_request_rejected_at_submit(self, micro_config):
        scheduler = self.make_scheduler(micro_config, n_blocks=2)
        with pytest.raises(ValueError, match="can never be admitted"):
            scheduler.submit(self.make_request("huge", n_prompt=16,
                                               max_new_tokens=16))

    def test_preemption_evicts_latest_admitted(self, micro_config):
        scheduler = self.make_scheduler(micro_config, n_blocks=4)
        scheduler.submit(self.make_request("old", n_prompt=8))
        scheduler.submit(self.make_request("young", n_prompt=8))
        scheduler.admit(now=0.0)
        old, young = scheduler.running
        for request in (old, young):
            request.cache.ensure_capacity(8)
            request.state = RequestState.DECODE
            request.next_pos = 8
            request.pending_token = 3
        young.generated_tokens = [2, 3]
        # The pool is full (4/4 blocks); old's decode slot needs a fifth
        # block, so the latest-admitted request is evicted.
        assert young.block_table  # physical blocks visible on the request
        slots = scheduler.build_step()
        assert [s.request_id for s in slots] == ["old"]
        assert len(scheduler.preemption_events) == 1
        assert young not in scheduler.running
        assert scheduler.queue.peek() is young
        assert young.state is RequestState.QUEUED
        assert young.cache is None
        assert young.block_table is None  # eviction dropped the mapping
        assert young.next_pos == 0
        # Replay stream: prompt plus generated-so-far minus the pending
        # token, which resumes decoding after the replay.
        assert young.replay_tokens == young.prompt_tokens + [2]
        assert young.pending_token == 3

    def test_preempted_request_readmits_ahead_of_queue(self, micro_config):
        scheduler = self.make_scheduler(micro_config, n_blocks=4)
        scheduler.submit(self.make_request("a", n_prompt=8))
        scheduler.submit(self.make_request("b", n_prompt=8))
        scheduler.submit(self.make_request("waiting", n_prompt=8))
        scheduler.admit(now=0.0)
        a, b = scheduler.running
        for request in (a, b):
            request.cache.ensure_capacity(8)
            request.state = RequestState.DECODE
            request.next_pos = 8
            request.pending_token = 3
        scheduler.build_step()  # preempts b
        assert [r.request_id for r in scheduler.queue] == ["b", "waiting"]

    def test_replay_last_slot_needs_no_logits(self, micro_config):
        # A replaying request already knows its next token; sampling the
        # replayed prompt's logits again would corrupt the sampler state.
        scheduler = self.make_scheduler(micro_config, n_blocks=8,
                                        max_batch_tokens=16,
                                        prefill_chunk=16)
        request = self.make_request("replay", n_prompt=6)
        request.replay_tokens = request.prompt_tokens + [9, 10]
        request.pending_token = 11
        request.generated_tokens = [9, 10, 11]
        scheduler.submit(request)
        scheduler.admit(now=0.0)
        slots = scheduler.build_step()
        assert [s.pos for s in slots] == list(range(8))
        assert [s.token for s in slots] == request.replay_tokens
        assert all(not s.need_logits for s in slots)

    def test_no_victim_skips_request_without_self_preemption(self, micro_config):
        # Both running requests hold two blocks in a full 4-block pool.
        # r0 decodes within its blocks; r1 needs a fifth block, but the
        # only candidates (itself, and r0 which already holds slots in
        # this step) are not preemptible — r1 is simply skipped.
        scheduler = self.make_scheduler(micro_config, n_blocks=4)
        scheduler.submit(self.make_request("r0", n_prompt=7,
                                           max_new_tokens=4))
        scheduler.submit(self.make_request("r1", n_prompt=8,
                                           max_new_tokens=4))
        scheduler.admit(now=0.0)
        r0, r1 = scheduler.running
        r0.cache.ensure_capacity(7)
        r1.cache.ensure_capacity(8)
        for request, pos in ((r0, 7), (r1, 8)):
            request.state = RequestState.DECODE
            request.next_pos = pos
            request.pending_token = 3
        slots = scheduler.build_step()
        assert [s.request_id for s in slots] == ["r0"]
        assert len(scheduler.preemption_events) == 0
        assert r1 in scheduler.running
