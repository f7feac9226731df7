"""End-to-end quantised serving: identity, accuracy pins and speedup.

Three claims, each pinned:

* scheduling never changes what a quantised engine generates — every
  point of the serving-config matrix (reservation/paged/TP2, with and
  without chunked prefill) produces the same token streams as one-shot
  generation on the same quantised stack;
* the INT8 datapath tracks the fp32 twin under teacher forcing at a
  pinned agreement/drift floor (INT4 diverges — documented, not hidden);
* on a bytes-bound platform the INT8 engine clears a pinned simulated
  tokens/s speedup over the fp32 twin, and the win is traceable to the
  HBM bytes that disappeared from the stream.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import EngineConfig
from repro.llama.evaluate import divergence_report
from repro.llama.model import LlamaModel

PROMPTS = ("Once upon a time", "The little dog", "Lily went to the park")


@pytest.fixture(scope="module")
def quant_llm():
    """One INT8+KV-quant stack shared by the matrix identity tests."""
    return EngineConfig(model="test-small", quant="int8",
                        quant_kv=True).build_llm()


@pytest.fixture(scope="module")
def fp32_llm():
    """The full-precision twin (a QuantConfig that quantises nothing)."""
    return EngineConfig(model="test-small", quant="fp32").build_llm()


class TestMatrixIdentity:
    def test_quant_streams_identical_across_matrix(
            self, engine_matrix_config, quant_llm, serve_streams,
            sequential_streams):
        config = dataclasses.replace(engine_matrix_config, quant="int8",
                                     quant_kv=True)
        served = serve_streams(quant_llm, config, PROMPTS, max_tokens=8)
        expected = sequential_streams(quant_llm, PROMPTS, max_tokens=8)
        assert served == [list(s) for s in expected]

    def test_matrix_reports_carry_quant_counters(
            self, engine_matrix_config, quant_llm, serve_streams):
        config = dataclasses.replace(engine_matrix_config, quant="int8",
                                     quant_kv=True)
        engine = config.build_engine(llm=quant_llm)
        for prompt in PROMPTS:
            engine.submit(prompt)
        report = engine.run()
        assert report.quant == "int8g64+kv8"
        assert report.quant_bytes_saved > 0
        assert report.dequant_flops > 0
        assert 0.0 < report.quant_saved_fraction < 1.0


class TestAccuracyPins:
    """Teacher-forced drift floors vs the fp32 twin (test-small, seed 0).

    Thresholds are pinned below the measured values (INT8: 0.966
    agreement, 0.029 max drift) with margin for platform float noise.
    """

    def _sequences(self, fp32_llm, n_tokens=24):
        sequences = []
        for prompt in PROMPTS[:2]:
            out = fp32_llm.generate(prompt, max_new_tokens=n_tokens,
                                    temperature=0.0)
            tokens = (fp32_llm.tokenizer.encode(prompt, bos=True, eos=False)
                      + list(out.generated_tokens))
            sequences.append(tokens[:40])
        return sequences

    def test_int8_agreement_and_drift_pinned(self, quant_llm, fp32_llm):
        quant_model = LlamaModel(quant_llm.accelerator.functional_checkpoint())
        fp32_model = LlamaModel(fp32_llm.accelerator.functional_checkpoint())
        report = divergence_report(quant_model, fp32_model,
                                   self._sequences(fp32_llm))
        assert report.token_agreement >= 0.90
        assert report.max_logit_drift <= 0.10

    def test_int4_diverges_more_than_int8(self, quant_llm, fp32_llm):
        # INT4 is honest about its accuracy cost: agreement drops well
        # below the INT8 floor (README documents this), but the datapath
        # still tracks the model (far better than the ~1/vocab chance
        # agreement of an unrelated model).
        int4_llm = EngineConfig(model="test-small", quant="int4",
                                quant_kv=True).build_llm()
        fp32_model = LlamaModel(fp32_llm.accelerator.functional_checkpoint())
        sequences = self._sequences(fp32_llm)
        int4 = divergence_report(
            LlamaModel(int4_llm.accelerator.functional_checkpoint()),
            fp32_model, sequences)
        int8 = divergence_report(
            LlamaModel(quant_llm.accelerator.functional_checkpoint()),
            fp32_model, sequences)
        assert int4.token_agreement < int8.token_agreement
        assert int4.token_agreement >= 0.30
        assert int4.max_logit_drift > int8.max_logit_drift


class TestBytesBoundSpeedup:
    """Acceptance pin: >=1.5x simulated tokens/s on a bytes-bound config."""

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.api import CompletionRequest, CompletionService

        def serve(quant):
            config = EngineConfig(
                model="test-small", quant=quant,
                quant_kv=(quant != "fp32"), ctx_bucket=16,
                hbm_channels=1, max_batch_tokens=16)
            engine = config.build_engine()
            service = CompletionService(engine)
            for prompt in PROMPTS:
                service.submit(CompletionRequest(
                    prompt=prompt, max_tokens=24, ignore_eos=True))
            return engine.run()

        return serve("int8"), serve("fp32")

    def test_int8_clears_speedup_floor(self, reports):
        int8, fp32 = reports
        speedup = (int8.throughput_tokens_per_second
                   / fp32.throughput_tokens_per_second)
        assert speedup >= 1.5

    def test_speedup_traceable_to_streamed_bytes(self, reports):
        int8, fp32 = reports
        # The win comes from bytes that left the HBM stream: the
        # quantised run streams fewer bytes, and what it saved accounts
        # for the gap to the fp32-equivalent stream.
        assert int8.counters.hbm_bytes < fp32.counters.hbm_bytes
        assert int8.quant_bytes_saved > 0
        fp32_equivalent = int8.counters.hbm_bytes + int8.quant_bytes_saved
        # KV fake-quant changes values (hence attention windows can
        # differ slightly), so compare within a loose band rather than
        # exactly.
        assert fp32_equivalent == pytest.approx(fp32.counters.hbm_bytes,
                                                rel=0.15)

    def test_fp32_twin_reports_no_quant(self, reports):
        _, fp32 = reports
        assert fp32.quant is None
        assert fp32.quant_bytes_saved == 0


class TestQuantCompileBench:
    """compile-bench --quant: cached quantised programs reuse perfectly.

    The satellite pin: a quantised engine's steady-state compile-cache
    hit rate is 100% (every decode-step shape re-served warm comes from
    the cache) and fixed vs autotuned tiling never changes a generated
    token — tiling only reorders the same quantised arithmetic.
    """

    def test_steady_state_hit_rate_and_token_identity(self):
        from repro.bench import compile_bench
        payload = compile_bench(
            EngineConfig(model="test-small", seed=37, ctx_bucket=32,
                         quant="int8", quant_kv=True),
            requests=2, prompt_words=12, tokens=16)
        assert payload["token_identity"] == "pass"
        assert payload["quant"] == "int8g64+kv8"
        assert payload["steady_state_hit_rate"] == 1.0
