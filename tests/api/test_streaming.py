"""Streaming-surface tests: RequestHandle iteration, stop sequences,
admission-time errors, and AsyncServingEngine.stream."""

from __future__ import annotations

import asyncio

import pytest

from repro.api import PromptTooLongError, SamplingParams
from repro.serve import SchedulerConfig, ServingEngine
from repro.serve.engine import AsyncServingEngine

PROMPTS = [
    "Once upon a time",
    "Lily and Tom went to the park",
    "The little dog was happy",
]


class TestHandleStreaming:
    def test_greedy_deltas_reassemble_to_final_text(self, llm):
        expected = llm.generate(PROMPTS[0], max_new_tokens=10)
        engine = ServingEngine(llm)
        handle = engine.submit(PROMPTS[0], SamplingParams(max_tokens=10))
        outputs = list(handle)
        assert outputs, "stream must yield at least one output"
        assert outputs[-1].finished
        assert outputs[-1].finish_reason == "length"
        assert all(not o.finished for o in outputs[:-1])
        text = "".join(o.text_delta for o in outputs)
        tokens = [t for o in outputs for t in o.new_token_ids]
        assert text == expected.text
        assert tokens == expected.generated_tokens
        # The cumulative view on the final output agrees too.
        assert outputs[-1].text == expected.text
        assert list(outputs[-1].token_ids) == expected.generated_tokens

    def test_top_p_deltas_reassemble_to_final_text(self, llm):
        params = SamplingParams(max_tokens=10, temperature=0.8, top_p=0.9,
                                seed=13)
        expected = llm.generate(PROMPTS[1], params=params)
        engine = ServingEngine(llm)
        handle = engine.submit(PROMPTS[1], params)
        outputs = list(handle)
        assert "".join(o.text_delta for o in outputs) == expected.text
        assert [t for o in outputs
                for t in o.new_token_ids] == expected.generated_tokens

    def test_streaming_interleaves_with_other_requests(self, llm):
        # Iterating one handle advances the whole batch: the second
        # request finishes during the first handle's loop.
        sequential = {
            p: llm.generate(p, max_new_tokens=6).generated_tokens
            for p in PROMPTS[:2]
        }
        engine = ServingEngine(llm, SchedulerConfig(max_batch_tokens=16))
        first = engine.submit(PROMPTS[0], SamplingParams(max_tokens=6))
        second = engine.submit(PROMPTS[1], SamplingParams(max_tokens=6))
        for _ in first:
            pass
        assert second.finished or second.request.n_generated > 0
        engine.run()
        assert list(second.token_ids) == sequential[PROMPTS[1]]
        assert list(first.token_ids) == sequential[PROMPTS[0]]

    def test_result_drains_and_reports_metrics(self, llm):
        engine = ServingEngine(llm)
        handle = engine.submit(PROMPTS[2], SamplingParams(max_tokens=5))
        metrics = handle.result()
        assert metrics.n_generated == 5
        assert metrics.finish_reason == "length"
        assert metrics.text == handle.text

    def test_handle_proxies_legacy_request_attributes(self, llm):
        engine = ServingEngine(llm)
        handle = engine.submit(PROMPTS[0], SamplingParams(max_tokens=4))
        assert handle.state.value == "queued"
        assert handle.n_prompt == len(handle.prompt_tokens)
        engine.run()
        assert handle.is_finished
        assert handle.queue_wait == 0.0


class TestStopSequences:
    def test_stop_sequence_truncates_text_and_stops_early(self, llm):
        full = llm.generate(PROMPTS[0], max_new_tokens=12)
        assert len(full.text) >= 8, "need a long enough greedy completion"
        stop = full.text[3:7]
        engine = ServingEngine(llm)
        handle = engine.submit(
            PROMPTS[0], SamplingParams(max_tokens=12, stop=(stop,)))
        outputs = list(handle)
        expected_text = full.text[:full.text.find(stop)]
        assert outputs[-1].finish_reason == "stop"
        assert outputs[-1].text == expected_text
        assert "".join(o.text_delta for o in outputs) == expected_text
        assert stop not in outputs[-1].text
        # Fewer tokens were decoded than the no-stop run needed.
        assert len(handle.token_ids) <= len(full.generated_tokens)
        # The raw token stream is a prefix of the unstopped stream:
        # stop sequences truncate text, never rewrite sampling.
        n = len(handle.token_ids)
        assert list(handle.token_ids) == full.generated_tokens[:n]

    def test_unmatched_stop_sequence_changes_nothing(self, llm):
        full = llm.generate(PROMPTS[1], max_new_tokens=8)
        engine = ServingEngine(llm)
        handle = engine.submit(PROMPTS[1], SamplingParams(
            max_tokens=8, stop=("\x00never-in-a-tinystory\x00",)))
        metrics = handle.result()
        assert metrics.generated_tokens == full.generated_tokens
        assert metrics.text == full.text
        assert metrics.finish_reason == "length"


class TestAdmissionErrors:
    def test_prompt_too_long_raises_typed_error(self, llm):
        max_seq_len = llm.model_config.max_seq_len
        prompt = "story " * (2 * max_seq_len)
        with pytest.raises(PromptTooLongError) as excinfo:
            ServingEngine(llm).submit(prompt, SamplingParams(max_tokens=4))
        assert excinfo.value.max_seq_len == max_seq_len
        assert isinstance(excinfo.value, ValueError)  # legacy contract

    def test_overflowing_budget_clamped_at_admission(self, llm):
        engine = ServingEngine(llm)
        handle = engine.submit(
            PROMPTS[0], SamplingParams(max_tokens=10 ** 6))
        room = llm.model_config.max_seq_len - handle.n_prompt
        # Accounted at admission: the carried budget already fits.
        assert handle.request.max_new_tokens == room
        assert handle.request.sampling.max_tokens == room


class TestLogprobs:
    def test_logprob_records_cover_every_token(self, llm):
        engine = ServingEngine(llm)
        handle = engine.submit(PROMPTS[0], SamplingParams(
            max_tokens=6, logprobs=3))
        outputs = list(handle)
        entries = [e for o in outputs for e in (o.logprobs or ())]
        tokens = [t for o in outputs for t in o.new_token_ids]
        assert len(entries) == len(tokens) == 6
        for token, entry in zip(tokens, entries):
            assert token in entry           # sampled token always present
            assert len(entry) <= 4          # top-3 plus the sampled token
            assert all(lp <= 0.0 for lp in entry.values())
        # Greedy decoding samples the argmax, which must also be the
        # highest-logprob entry.
        for token, entry in zip(tokens, entries):
            assert entry[token] == max(entry.values())

    def test_no_logprobs_by_default(self, llm):
        engine = ServingEngine(llm)
        handle = engine.submit(PROMPTS[0], SamplingParams(max_tokens=4))
        outputs = list(handle)
        assert all(o.logprobs is None for o in outputs)


class TestAsyncStreaming:
    @pytest.mark.parametrize("sampling", [
        pytest.param({"temperature": 0.0, "top_p": 1.0}, id="greedy"),
        pytest.param({"temperature": 0.8, "top_p": 0.9, "seed": 21},
                     id="top-p"),
    ])
    def test_stream_deltas_match_generate(self, llm, sampling):
        params = SamplingParams(max_tokens=8, **sampling)
        expected = llm.generate(PROMPTS[0], params=params)
        engine = AsyncServingEngine(llm)

        async def drive():
            parts, tokens = [], []
            async for out in engine.stream(PROMPTS[0], params):
                parts.append(out.text_delta)
                tokens.extend(out.new_token_ids)
            return "".join(parts), tokens

        text, tokens = asyncio.run(drive())
        assert text == expected.text
        assert tokens == expected.generated_tokens

    def test_stream_and_generate_share_batches(self, llm):
        sequential = {
            p: llm.generate(p, max_new_tokens=6).generated_tokens
            for p in PROMPTS[:2]
        }
        engine = AsyncServingEngine(llm)

        async def drive():
            other = asyncio.ensure_future(
                engine.generate(PROMPTS[1], SamplingParams(max_tokens=6)))
            tokens = []
            async for out in engine.stream(
                    PROMPTS[0], SamplingParams(max_tokens=6)):
                tokens.extend(out.new_token_ids)
            return tokens, await other

        streamed, other = asyncio.run(drive())
        assert streamed == sequential[PROMPTS[0]]
        assert other.generated_tokens == sequential[PROMPTS[1]]
        assert engine.report().mean_batch_tokens > 1.0

    def test_partial_stream_cancellation_frees_kv_blocks(self, llm):
        """Abandoning a stream mid-flight cancels the request, frees its
        KV blocks immediately, and leaves the other requests' tokens
        untouched."""
        sequential = {
            p: llm.generate(p, max_new_tokens=8).generated_tokens
            for p in PROMPTS[1:3]
        }
        engine = AsyncServingEngine(
            llm, SchedulerConfig(paged=True, block_tokens=8))
        pool = engine.engine.scheduler.kv

        async def drive():
            survivors = [
                asyncio.ensure_future(
                    engine.generate(p, SamplingParams(max_tokens=8)))
                for p in PROMPTS[1:3]
            ]
            stream = engine.stream(
                PROMPTS[0], SamplingParams(max_tokens=24))
            seen = 0
            async for out in stream:
                seen += len(out.new_token_ids)
                if seen >= 3:
                    break
            blocks_before = pool.allocator.blocks_in_use
            await stream.aclose()   # abandoning the stream cancels it
            assert pool.allocator.blocks_in_use < blocks_before
            return await asyncio.gather(*survivors)

        results = asyncio.run(drive())
        assert [r.generated_tokens for r in results] == [
            sequential[p] for p in PROMPTS[1:3]
        ]
        # Only the survivors completed; the abandoned stream did not.
        assert engine.report().n_requests == 2

    def test_stream_propagates_engine_failure(self, llm, monkeypatch):
        engine = AsyncServingEngine(llm)
        monkeypatch.setattr(
            engine.engine, "step",
            lambda: (_ for _ in ()).throw(RuntimeError("boom")),
        )

        async def drive():
            async for _ in engine.stream(PROMPTS[0],
                                         SamplingParams(max_tokens=4)):
                pass

        with pytest.raises(RuntimeError, match="boom"):
            asyncio.run(drive())
