"""Functional-equivalence validation of the accelerator against the reference.

A co-designed accelerator is only useful if it computes the same model.
This module runs a prompt suite through both the simulated accelerator
(functional graph executor over the datapath weights) and the NumPy
reference engine — the teacher-forced
:func:`~repro.llama.evaluate.divergence_report` over each prompt plus
the reference's own greedy continuation — and reports:

* greedy token agreement per prompt and overall,
* the worst absolute logit deviation observed,
* whether the run passes a configurable agreement threshold.

It is used by the examples (`--validate` style flows) and by the
integration tests; a hardware bring-up would run the same suite against
the real board.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..accel.accelerator import SpeedLLMAccelerator
from ..llama.evaluate import divergence_report
from ..llama.generation import generate
from ..llama.model import LlamaModel
from ..llama.tokenizer import Tokenizer
from ..workloads.prompts import PromptSuite, default_suite

__all__ = ["PromptValidation", "ValidationReport", "validate_accelerator"]


@dataclass(frozen=True)
class PromptValidation:
    """Outcome of validating one workload."""

    workload: str
    n_positions: int
    n_agreements: int
    max_logit_error: float

    @property
    def agreement(self) -> float:
        if self.n_positions == 0:
            return 1.0
        return self.n_agreements / self.n_positions


@dataclass
class ValidationReport:
    """Aggregate outcome over a prompt suite."""

    prompts: List[PromptValidation] = field(default_factory=list)
    threshold: float = 1.0

    @property
    def n_positions(self) -> int:
        return sum(p.n_positions for p in self.prompts)

    @property
    def agreement(self) -> float:
        total = self.n_positions
        if total == 0:
            return 1.0
        return sum(p.n_agreements for p in self.prompts) / total

    @property
    def max_logit_error(self) -> float:
        if not self.prompts:
            return 0.0
        return max(p.max_logit_error for p in self.prompts)

    @property
    def passed(self) -> bool:
        return self.agreement >= self.threshold

    def as_rows(self) -> List[dict]:
        rows = [{
            "workload": p.workload,
            "positions": p.n_positions,
            "agreement": p.agreement,
            "max_logit_error": p.max_logit_error,
        } for p in self.prompts]
        rows.append({
            "workload": "TOTAL",
            "positions": self.n_positions,
            "agreement": self.agreement,
            "max_logit_error": self.max_logit_error,
        })
        return rows


def validate_accelerator(
    accelerator: SpeedLLMAccelerator,
    tokenizer: Tokenizer,
    suite: Optional[PromptSuite] = None,
    n_decode: int = 16,
    threshold: float = 1.0,
    reference: Optional[LlamaModel] = None,
) -> ValidationReport:
    """Compare the accelerator's functional output against the reference.

    ``reference`` defaults to a NumPy engine built over the accelerator's
    *functional* weights (so the comparison isolates execution differences
    from quantisation error); pass ``LlamaModel(checkpoint)`` explicitly to
    measure the quantisation impact instead.
    """
    suite = suite or default_suite(n_prompts=3, max_new_tokens=n_decode)
    reference = reference or LlamaModel(accelerator.functional_checkpoint())
    report = ValidationReport(threshold=threshold)
    for workload in suite:
        prompt = tokenizer.encode(workload.prompt, bos=True)
        tail = generate(
            reference, prompt, min(n_decode, workload.max_new_tokens),
            stop_at_eos=False).generated_tokens
        drift = divergence_report(accelerator, reference, [prompt + tail])
        report.prompts.append(PromptValidation(
            workload=workload.name,
            n_positions=drift.n_positions,
            n_agreements=drift.n_agreements,
            max_logit_error=drift.max_logit_drift,
        ))
    return report
