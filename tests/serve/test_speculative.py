"""End-to-end tests for speculative decoding (repro.spec + serving stack).

The acceptance bar:

* greedy speculative output is **token-identical** to non-speculative
  greedy across the local backend, the paged scheduler and
  tensor-parallel execution — the drafter can only change how many
  passes decoding takes, never what it produces;
* rejected draft positions roll the KV cache back cleanly: the paged
  pool leaks no blocks across a speculative run, preemption included;
* with a high-acceptance drafter the serving throughput on the
  repetitive suite beats the non-speculative engine by >= 1.5x, and the
  report surfaces acceptance-rate / tokens-per-step;
* variable-length commits stream through the frontend identically to
  single-token commits, stop sequences straddling a run boundary
  included.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import EngineConfig, SamplingParams, SpecConfig
from repro.core.speedllm import SpeedLLM
from repro.workloads import repetitive_suite

NGRAM = SpecConfig(method="ngram", num_draft_tokens=4)
SELF_DRAFT = SpecConfig(method="draft", num_draft_tokens=6)


@pytest.fixture(scope="module")
def llm(small_checkpoint, tiny_tokenizer):
    return SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                    tokenizer=tiny_tokenizer)


def config(**overrides) -> EngineConfig:
    defaults = dict(model="test-small", max_batch_tokens=32)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def serve(cfg: EngineConfig, llm, suite, **params):
    engine = cfg.build_engine(llm=llm)
    for workload in suite:
        engine.submit(workload.prompt, SamplingParams(
            max_tokens=workload.max_new_tokens, **params))
    report = engine.run(max_steps=5000)
    tokens = {r.prompt: tuple(r.generated_tokens) for r in report.requests}
    return engine, report, tokens


class TestTokenIdentity:
    """Greedy speculative decode == greedy plain decode, everywhere."""

    @pytest.fixture(scope="class")
    def reference(self, llm):
        suite = repetitive_suite(n_prompts=4, max_new_tokens=24)
        _, _, tokens = serve(config(), llm, suite)
        return suite, tokens

    @pytest.mark.parametrize("spec", [NGRAM, SELF_DRAFT],
                             ids=["ngram", "self-draft"])
    def test_local_backend(self, llm, reference, spec):
        suite, expected = reference
        _, report, tokens = serve(config(speculative=spec), llm, suite)
        assert tokens == expected
        assert report.speculative

    @pytest.mark.parametrize("spec", [NGRAM, SELF_DRAFT],
                             ids=["ngram", "self-draft"])
    def test_paged_scheduler(self, llm, reference, spec):
        suite, expected = reference
        _, report, tokens = serve(
            config(speculative=spec, paged=True, block_size=8,
                   kv_budget_bytes=1 << 20),
            llm, suite)
        assert tokens == expected

    def test_tensor_parallel(self, llm, reference):
        suite, expected = reference
        _, _, tokens = serve(
            config(speculative=NGRAM, tensor_parallel=2), llm, suite)
        assert tokens == expected

    def test_paged_tensor_parallel(self, llm, reference):
        suite, expected = reference
        _, _, tokens = serve(
            config(speculative=NGRAM, paged=True, block_size=8,
                   tensor_parallel=2),
            llm, suite)
        assert tokens == expected

    def test_identity_under_preemption_pressure(self, llm):
        from repro.llama.kv_cache import KVCache
        suite = repetitive_suite(n_prompts=4, max_new_tokens=40)
        _, _, expected = serve(config(), llm, suite, ignore_eos=True)
        tight = KVCache.bytes_per_block(llm.model_config, 8) * 16
        engine, report, tokens = serve(
            config(speculative=NGRAM, paged=True, block_size=8,
                   kv_budget_bytes=tight, max_batch_tokens=24),
            llm, suite, ignore_eos=True)
        assert tokens == expected
        # The tight pool must actually have preempted something for this
        # test to exercise replay + rollback together.
        assert report.n_preemptions > 0


class TestRollback:
    def test_paged_pool_leaks_no_blocks(self, llm):
        suite = repetitive_suite(n_prompts=4, max_new_tokens=16)
        engine, report, _ = serve(
            config(speculative=NGRAM, paged=True, block_size=8,
                   kv_budget_bytes=1 << 20),
            llm, suite)
        # Every draft was either committed or rolled back; after draining
        # no request holds blocks.
        assert engine.scheduler.kv.allocator.blocks_in_use == 0
        assert report.spec_draft_tokens > 0

    def test_rejections_truncate_reservation_cache(self, llm):
        # A drafter with ~zero acceptance forces a rollback on nearly
        # every decode turn; decode still runs to the exact budget.
        spec = SpecConfig(method="draft", draft_model="test-micro",
                          num_draft_tokens=4)
        suite = repetitive_suite(n_prompts=2, max_new_tokens=12)
        _, report, tokens = serve(config(speculative=spec), llm, suite)
        assert all(len(t) == 12 for t in tokens.values())
        assert report.spec_draft_tokens > 0
        assert report.acceptance_rate < 1.0


class TestThroughput:
    def test_high_acceptance_speculation_beats_plain_serving(self, llm):
        """The ISSUE acceptance bar: >= 1.5x tokens/sec on the repetitive
        suite against the same engine with speculation off.

        The self-draft drafter pins the verify/commit machinery at
        acceptance 1.0, so the measured speedup is the timing model's
        multi-token amortization — weight tiles and fused verify runs —
        not drafter luck.
        """
        suite = repetitive_suite(n_prompts=2, max_new_tokens=96)
        base = config(max_batch_tokens=64)
        _, plain, _ = serve(base, llm, suite, ignore_eos=True)
        _, spec, _ = serve(
            dataclasses.replace(base, speculative=SELF_DRAFT),
            llm, suite, ignore_eos=True)
        speedup = (spec.throughput_tokens_per_second
                   / plain.throughput_tokens_per_second)
        assert spec.acceptance_rate > 0.95
        assert spec.tokens_per_decode_step > 4.0
        assert speedup >= 1.5, f"speculative speedup only {speedup:.2f}x"

    def test_ngram_acceptance_favorable_vs_adversarial(self, llm):
        """Prompt lookup must separate the workloads it was built for.

        On templated prompts the drafter finds matches constantly and
        lands more accepted tokens per decode turn; on novel text the
        suffix lookup rarely fires at all.  (The *rate* among fired
        proposals can be noisy in either direction — the discriminating
        signals are draft volume and committed tokens per turn.)
        """
        favorable = repetitive_suite(n_prompts=3, max_new_tokens=48)
        adversarial = repetitive_suite(n_prompts=3, max_new_tokens=48,
                                       adversarial=True)
        cfg = config(speculative=NGRAM, max_batch_tokens=64)
        _, fav, _ = serve(cfg, llm, favorable, ignore_eos=True)
        _, adv, _ = serve(cfg, llm, adversarial, ignore_eos=True)
        assert fav.spec_draft_tokens > adv.spec_draft_tokens
        assert fav.spec_accepted_tokens > adv.spec_accepted_tokens
        assert fav.tokens_per_decode_step > adv.tokens_per_decode_step
        assert fav.tokens_per_decode_step > 1.0


class TestReportMetrics:
    def test_spec_fields_surface_in_report(self, llm):
        suite = repetitive_suite(n_prompts=2, max_new_tokens=12)
        _, report, _ = serve(config(speculative=NGRAM), llm, suite)
        payload = report.as_dict()
        assert payload["speculative"] is True
        assert payload["spec_method"] == "ngram"
        assert payload["spec_draft_tokens"] == report.spec_draft_tokens
        assert 0.0 <= payload["acceptance_rate"] <= 1.0
        assert payload["tokens_per_decode_step"] >= 1.0
        # Per-request accounting adds up to the aggregate.
        assert sum(r.draft_tokens_proposed for r in report.requests) == \
            report.spec_draft_tokens
        assert sum(r.draft_tokens_accepted for r in report.requests) == \
            report.spec_accepted_tokens

    def test_plain_engine_reports_speculation_off(self, llm):
        suite = repetitive_suite(n_prompts=1, max_new_tokens=8)
        _, report, _ = serve(config(), llm, suite)
        payload = report.as_dict()
        assert payload["speculative"] is False
        assert payload["spec_method"] is None
        assert payload["spec_draft_tokens"] == 0


class TestStreamingCommits:
    """Variable-length commits through the frontend streaming path."""

    def test_stream_deltas_reassemble_across_run_boundaries(self, llm):
        suite = repetitive_suite(n_prompts=2, max_new_tokens=24)
        engine = config(speculative=SELF_DRAFT).build_engine(llm=llm)
        handles = [engine.submit(w.prompt,
                                 SamplingParams(max_tokens=w.max_new_tokens))
                   for w in suite]
        streams = {h.request_id: [] for h in handles}
        multi_token_outputs = 0
        for handle in handles:
            for output in handle:
                streams[handle.request_id].append(output)
                if len(output.new_token_ids) > 1:
                    multi_token_outputs += 1
        # Speculation must actually have produced multi-token increments.
        assert multi_token_outputs > 0
        for handle in handles:
            outputs = streams[handle.request_id]
            text = "".join(o.text_delta for o in outputs)
            assert text == engine.visible_text(handle.request)
            tokens = [t for o in outputs for t in o.new_token_ids]
            assert tokens == list(handle.request.generated_tokens)

    def test_stop_sequence_straddling_speculative_run_boundary(self, llm):
        """Property-style satellite: for stop strings cut at every offset
        of the reference text, the speculative stream's reassembled,
        stop-truncated output is byte-identical to the non-speculative
        engine's — even when the match completes mid-verify-run."""
        suite = repetitive_suite(n_prompts=1, max_new_tokens=32)
        prompt = suite.workloads[0].prompt
        _, _, tokens = serve(config(), llm, suite)
        full_text = llm.tokenizer.decode(list(tokens[prompt]))
        assert len(full_text) > 12
        # Slice candidate stop strings out of the middle of the reference
        # text so the match lands at varying run offsets.
        offsets = range(3, min(len(full_text) - 4, 24), 4)
        for offset in offsets:
            stop = full_text[offset:offset + 3]
            if not stop.strip():
                continue
            params = SamplingParams(max_tokens=32, stop=(stop,))
            plain_engine = config().build_engine(llm=llm)
            plain = plain_engine.submit(prompt, params).result()
            spec_engine = config(speculative=SELF_DRAFT).build_engine(llm=llm)
            handle = spec_engine.submit(prompt, params)
            deltas = []
            final = None
            for output in handle:
                deltas.append(output.text_delta)
                final = output
            assert "".join(deltas) == final.text == plain.text
            assert final.finish_reason == plain.finish_reason
            assert stop not in final.text
