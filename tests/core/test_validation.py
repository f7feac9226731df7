"""Tests for repro.core.validation."""

from __future__ import annotations

import pytest

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.config import AcceleratorConfig
from repro.core.speedllm import SpeedLLM
from repro.core.validation import ValidationReport, validate_accelerator
from repro.llama.model import LlamaModel
from repro.workloads.prompts import PromptSuite, Workload, default_suite


@pytest.fixture(scope="module")
def accel(small_checkpoint):
    return SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig())


@pytest.fixture(scope="module")
def suite():
    return PromptSuite(name="validation", workloads=(
        Workload(name="p0", prompt="Once upon a time", max_new_tokens=8),
        Workload(name="p1", prompt="Lily found a shiny stone", max_new_tokens=8),
    ))


class TestValidateAccelerator:
    def test_full_agreement_against_functional_reference(self, accel, tiny_tokenizer, suite):
        """Against a reference using the same datapath weights, the graph
        executor must agree on every position."""
        report = validate_accelerator(accel, tiny_tokenizer, suite, n_decode=6)
        assert report.passed
        assert report.agreement == 1.0
        assert report.max_logit_error < 1e-3
        assert report.n_positions > 0
        assert len(report.prompts) == 2

    def test_fused_and_unfused_designs_both_validate(self, small_checkpoint,
                                                     tiny_tokenizer, suite):
        for variant in ("full", "no-fusion"):
            accel = SpeedLLMAccelerator(
                small_checkpoint, AcceleratorConfig.variant(variant))
            report = validate_accelerator(accel, tiny_tokenizer, suite, n_decode=4)
            assert report.agreement == 1.0

    def test_quantization_impact_measurable_against_float_reference(
        self, accel, small_checkpoint, tiny_tokenizer, suite
    ):
        """Against the float32 checkpoint the agreement may dip below 1 and
        the logit error must be non-zero (the int8 datapath differs)."""
        report = validate_accelerator(
            accel, tiny_tokenizer, suite, n_decode=6,
            reference=LlamaModel(small_checkpoint), threshold=0.5,
        )
        assert report.max_logit_error > 0
        assert 0.5 <= report.agreement <= 1.0

    def test_rows_include_total(self, accel, tiny_tokenizer, suite):
        report = validate_accelerator(accel, tiny_tokenizer, suite, n_decode=4)
        rows = report.as_rows()
        assert rows[-1]["workload"] == "TOTAL"
        assert len(rows) == len(suite) + 1

    def test_default_suite_used_when_none_given(self, accel, tiny_tokenizer):
        report = validate_accelerator(accel, tiny_tokenizer, n_decode=3)
        assert isinstance(report, ValidationReport)
        assert report.n_positions > 0

    def test_empty_report_defaults(self):
        report = ValidationReport()
        assert report.agreement == 1.0
        assert report.max_logit_error == 0.0
        assert report.passed


class TestRowsArePinned:
    """Reference rows from commit 60c96f5's validation-private
    teacher-forced loop; ``divergence_report`` over prompt + the
    reference's greedy tail must reproduce them."""

    @staticmethod
    def _rows(report):
        return [(p.workload, p.n_positions, p.n_agreements,
                 float(p.max_logit_error).hex()) for p in report.prompts]

    @pytest.mark.parametrize("variant", ["full", "no-fusion"])
    def test_cli_suite_against_functional_reference(self, variant):
        """``speedllm validate --prompts 3 --tokens 6``'s rows."""
        llm = SpeedLLM(model="test-small", variant=variant)
        report = validate_accelerator(
            llm.accelerator, llm.tokenizer, default_suite(3, 6, seed=0),
            n_decode=6)
        assert self._rows(report) == [
            ("story-0", 13, 13, 0.0.hex()),
            ("story-1", 14, 14, 0.0.hex()),
            ("story-2", 15, 15, 0.0.hex()),
        ]

    def test_against_float_reference(self, accel, small_checkpoint,
                                     tiny_tokenizer):
        """Against fp32 weights the int8 datapath drifts and flips one
        greedy token; the tail the rows cover is the reference's own."""
        report = validate_accelerator(
            accel, tiny_tokenizer, default_suite(3, 6, seed=0), n_decode=6,
            reference=LlamaModel(small_checkpoint), threshold=0.5)
        assert self._rows(report) == [
            ("story-0", 13, 13, "0x1.ece0300000000p-7"),
            ("story-1", 16, 15, "0x1.d610200000000p-7"),
            ("story-2", 16, 16, "0x1.bab9000000000p-7"),
        ]
