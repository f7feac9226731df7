"""End-to-end tests for the serving engine (repro.serve.engine).

The central invariant: continuous batching changes *when* positions are
executed, never *what* they compute, so a served request's tokens are
identical to a sequential ``SpeedLLM.generate`` call with the same
sampling settings.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import SamplingParams
from repro.core.speedllm import SpeedLLM
from repro.llama.kv_cache import KVCache
from repro.serve import SchedulerConfig, ServingEngine
from repro.serve.engine import AsyncServingEngine

PROMPTS = [
    "Once upon a time",
    "Lily and Tom went to the park",
    "The little dog was happy",
    "One day a bird found a shiny stone",
    "Sam liked to play with his red ball",
    "The sun was warm and bright",
    "A cat sat on the soft mat",
    "Mia saw a big tree in the garden",
]


@pytest.fixture(scope="module")
def llm(small_checkpoint, tiny_tokenizer):
    return SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                    tokenizer=tiny_tokenizer)


class TestBatchedEqualsSequential:
    def test_eight_concurrent_greedy_requests(self, llm):
        sequential = {
            prompt: llm.generate(prompt, max_new_tokens=10).generated_tokens
            for prompt in PROMPTS
        }
        engine = ServingEngine(llm, SchedulerConfig(max_batch_tokens=16))
        for prompt in PROMPTS:
            engine.submit(prompt, SamplingParams(max_tokens=10))
        report = engine.run()
        assert report.n_requests == len(PROMPTS)
        for result in report.requests:
            assert result.generated_tokens == sequential[result.prompt]

    def test_stochastic_sampling_matches_with_same_seed(self, llm):
        prompts = PROMPTS[:4]
        sequential = {
            prompt: llm.generate(prompt, max_new_tokens=8, temperature=0.8,
                                 top_p=0.9, seed=11 + i).generated_tokens
            for i, prompt in enumerate(prompts)
        }
        engine = ServingEngine(llm)
        for i, prompt in enumerate(prompts):
            engine.submit(prompt, SamplingParams(
                max_tokens=8, temperature=0.8, top_p=0.9, seed=11 + i))
        report = engine.run()
        for result in report.requests:
            assert result.generated_tokens == sequential[result.prompt]

    def test_served_text_decodes_generated_tokens(self, llm):
        engine = ServingEngine(llm)
        engine.submit(PROMPTS[0], SamplingParams(max_tokens=6))
        report = engine.run()
        result = report.requests[0]
        assert result.text == llm.tokenizer.decode(result.generated_tokens)


class TestThroughput:
    def test_batched_throughput_at_least_double_sequential(self, llm):
        sequential_outputs = [llm.generate(p, max_new_tokens=10)
                              for p in PROMPTS]
        seq_tokens = sum(len(o.generated_tokens) for o in sequential_outputs)
        seq_seconds = sum(o.metrics.total_seconds for o in sequential_outputs)
        engine = ServingEngine(llm, SchedulerConfig(max_batch_tokens=16))
        for prompt in PROMPTS:
            engine.submit(prompt, SamplingParams(max_tokens=10))
        report = engine.run()
        assert report.total_generated_tokens == seq_tokens
        speedup = report.throughput_tokens_per_second / (seq_tokens / seq_seconds)
        assert speedup >= 2.0

    def test_report_before_any_completion_is_all_zero(self, llm):
        engine = ServingEngine(llm)
        report = engine.report()
        assert report.n_requests == 0
        summary = report.latency_summary()
        assert (summary.n, summary.p95) == (0, 0.0)
        assert report.as_dict()["throughput_tokens_per_second"] == 0.0

    def test_run_max_steps_enforced(self, llm):
        engine = ServingEngine(llm)
        engine.submit(PROMPTS[0], SamplingParams(max_tokens=32))
        with pytest.raises(RuntimeError, match="did not drain"):
            engine.run(max_steps=1)
        assert engine.report().n_steps == 1

    def test_report_aggregates_are_consistent(self, llm):
        engine = ServingEngine(llm, SchedulerConfig(max_batch_tokens=8))
        for prompt in PROMPTS[:4]:
            engine.submit(prompt, SamplingParams(max_tokens=6))
        report = engine.run()
        assert report.n_steps > 0
        assert report.mean_batch_tokens > 1.0
        assert report.makespan_seconds > 0
        assert report.energy.total_j > 0
        latency = report.latency_summary()
        assert latency.p50 <= latency.p95 <= latency.max
        assert all(r.latency_s >= r.time_to_first_token_s >= 0
                   for r in report.requests)


class TestDecodeBudgetEdges:
    def test_window_limited_request_generates_one_token(self, llm):
        # A prompt one position short of the context window leaves a
        # decode budget of exactly 1 regardless of max_new_tokens: the
        # request must retire after its first sampled token instead of
        # running past the window.
        from repro.serve.request import Request as Req
        from repro.llama.sampler import Sampler

        config = llm.model_config
        engine = ServingEngine(llm)
        request = Req(
            request_id="window-limited",
            prompt_tokens=[5] * (config.max_seq_len - 1),
            max_new_tokens=16,
            sampler=Sampler(),
        )
        engine.scheduler.submit(request)
        report = engine.run(max_steps=200)
        assert report.n_requests == 1
        assert report.requests[0].n_generated == 1
        assert request.is_finished


class TestBackPressure:
    def test_kv_budget_queues_and_drains(self, llm):
        config = llm.model_config

        def footprint(prompt):
            positions = min(len(llm.encode(prompt)) + 8, config.max_seq_len)
            return KVCache.projected_nbytes(config, positions)

        # Budget admits exactly the first two requests; the rest must wait
        # until a running request retires and releases its reservation.
        scheduler_config = SchedulerConfig(
            kv_budget_bytes=footprint(PROMPTS[0]) + footprint(PROMPTS[1]))
        sequential = {
            prompt: llm.generate(prompt, max_new_tokens=8).generated_tokens
            for prompt in PROMPTS[:4]
        }
        engine = ServingEngine(llm, scheduler_config)
        requests = [engine.submit(p, SamplingParams(max_tokens=8))
                    for p in PROMPTS[:4]]
        report = engine.run()
        assert report.n_requests == 4
        # The requests beyond the budget waited in the queue...
        waits = [r.queue_wait for r in requests]
        assert waits[0] == 0.0
        assert max(waits) > 0.0
        # ...but back-pressure never changed what they generated.
        for result in report.requests:
            assert result.generated_tokens == sequential[result.prompt]


class TestArrivalTimes:
    def test_staggered_arrivals_wait_for_the_clock(self, llm):
        from repro.workloads.arrivals import poisson_arrival_times

        sequential = {
            prompt: llm.generate(prompt, max_new_tokens=6).generated_tokens
            for prompt in PROMPTS[:4]
        }
        engine = ServingEngine(llm)
        # Arrival gaps far larger than a request's service time: every
        # request must be admitted only once the clock reaches it.
        arrivals = poisson_arrival_times(4, rate_per_s=10.0, seed=2)
        requests = [
            engine.submit(prompt, SamplingParams(max_tokens=6),
                          arrival_time=arrival)
            for prompt, arrival in zip(PROMPTS[:4], arrivals)
        ]
        report = engine.run()
        assert report.n_requests == 4
        for request, arrival in zip(requests, arrivals):
            assert request.admitted_time >= arrival
        # The run spans the arrival process, not just the compute.
        assert report.makespan_seconds >= arrivals[-1]
        # Arrival pacing never changes what is generated.
        for result in report.requests:
            assert result.generated_tokens == sequential[result.prompt]

    def test_out_of_order_arrival_times_still_drain(self, llm):
        # Admission is strictly FIFO, so a later-submitted request with
        # an *earlier* arrival time waits behind the head.  The idle
        # clock must fast-forward to the head's arrival (not the queue
        # minimum) or the drain loop would spin forever.
        engine = ServingEngine(llm)
        late = engine.submit(PROMPTS[0], SamplingParams(max_tokens=4),
                             arrival_time=5.0)
        early = engine.submit(PROMPTS[1], SamplingParams(max_tokens=4),
                              arrival_time=1.0)
        report = engine.run(max_steps=200)
        assert report.n_requests == 2
        assert late.admitted_time >= 5.0
        assert early.admitted_time >= 5.0  # FIFO: behind the head

    def test_queue_wait_measures_contention_not_arrival(self, llm):
        # One running slot: the second request arrives immediately but
        # must wait for the first to finish, showing up as queue wait.
        engine = ServingEngine(llm, SchedulerConfig(max_running=1))
        first = engine.submit(PROMPTS[0], SamplingParams(max_tokens=8))
        second = engine.submit(PROMPTS[1], SamplingParams(max_tokens=8))
        engine.run()
        assert first.queue_wait == 0.0
        assert second.queue_wait > 0.0


class TestCancellation:
    def test_cancel_running_request_frees_reservation(self, llm):
        engine = ServingEngine(llm)
        victim = engine.submit(PROMPTS[0], SamplingParams(max_tokens=16))
        survivor = engine.submit(PROMPTS[1], SamplingParams(max_tokens=8))
        engine.step()  # both admitted and started
        reserved_before = engine.scheduler.kv.reserved_bytes
        assert engine.cancel(victim) is True
        assert victim.state.value == "cancelled"
        assert engine.scheduler.kv.reserved_bytes < reserved_before
        report = engine.run()
        assert report.n_requests == 1
        assert report.requests[0].request_id == survivor.request_id
        # Tokens of the survivor are unaffected by the cancellation.
        expected = llm.generate(PROMPTS[1], max_new_tokens=8).generated_tokens
        assert report.requests[0].generated_tokens == expected

    def test_cancel_queued_request_before_admission(self, llm):
        engine = ServingEngine(llm, SchedulerConfig(max_running=1))
        engine.submit(PROMPTS[0], SamplingParams(max_tokens=8))
        queued = engine.submit(PROMPTS[1], SamplingParams(max_tokens=8))
        engine.step()
        assert engine.cancel(queued) is True
        report = engine.run()
        assert report.n_requests == 1

    def test_cancel_finished_request_is_a_noop(self, llm):
        engine = ServingEngine(llm)
        request = engine.submit(PROMPTS[0], SamplingParams(max_tokens=4))
        engine.run()
        assert engine.cancel(request) is False
        assert request.is_finished


class TestAsyncEngine:
    def test_concurrent_generate_calls_share_batches(self, llm):
        sequential = {
            prompt: llm.generate(prompt, max_new_tokens=8).generated_tokens
            for prompt in PROMPTS[:3]
        }
        engine = AsyncServingEngine(llm)

        async def drive():
            return await asyncio.gather(*[
                engine.generate(prompt, SamplingParams(max_tokens=8))
                for prompt in PROMPTS[:3]
            ])

        results = asyncio.run(drive())
        assert [r.generated_tokens for r in results] == [
            sequential[p] for p in PROMPTS[:3]
        ]
        report = engine.report()
        assert report.n_requests == 3
        # All three joined a shared batch at some point.
        assert report.mean_batch_tokens > 1.0

    def test_cancelling_one_generate_frees_kv_and_keeps_stepping(self, llm):
        """Cancelling an in-flight ``generate`` releases the request's KV
        blocks immediately and the driver continues the remaining
        requests to completion with unchanged tokens."""
        sequential = {
            prompt: llm.generate(prompt, max_new_tokens=8).generated_tokens
            for prompt in PROMPTS[1:3]
        }
        engine = AsyncServingEngine(
            llm, SchedulerConfig(paged=True, block_tokens=8))
        pool = engine.engine.scheduler.kv

        async def drive():
            victim = asyncio.ensure_future(
                engine.generate(PROMPTS[0], SamplingParams(max_tokens=24)))
            survivors = [
                asyncio.ensure_future(
                    engine.generate(p, SamplingParams(max_tokens=8)))
                for p in PROMPTS[1:3]
            ]
            # Let the batch run a few steps so every request holds blocks.
            for _ in range(6):
                await asyncio.sleep(0)
            blocks_before = pool.allocator.blocks_in_use
            victim.cancel()
            await asyncio.sleep(0)  # cancellation lands in generate()
            assert victim.cancelled() or victim.done()
            # The victim's private blocks were released right away (its
            # prefix-shared blocks may stay parked for reuse).
            assert pool.allocator.blocks_in_use < blocks_before
            return await asyncio.gather(*survivors)

        results = asyncio.run(drive())
        assert [r.generated_tokens for r in results] == [
            sequential[p] for p in PROMPTS[1:3]
        ]
        # Only the survivors completed; the driver drained cleanly.
        assert engine.report().n_requests == 2

    def test_step_failure_propagates_to_waiters(self, llm, monkeypatch):
        engine = AsyncServingEngine(llm)
        monkeypatch.setattr(
            engine.engine, "step",
            lambda: (_ for _ in ()).throw(RuntimeError("boom")),
        )

        async def drive():
            await engine.generate(PROMPTS[0], SamplingParams(max_tokens=4))

        # The waiter gets the engine failure instead of hanging forever.
        with pytest.raises(RuntimeError, match="boom"):
            asyncio.run(drive())
