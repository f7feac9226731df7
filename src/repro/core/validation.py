"""Functional-equivalence validation of the accelerator against the reference.

A co-designed accelerator is only useful if it computes the same model.
This module runs a prompt suite through both the simulated accelerator
(functional graph executor over the datapath weights) and the NumPy
reference engine, and reports:

* greedy token agreement per prompt and overall,
* the worst absolute logit deviation observed,
* whether the run passes a configurable agreement threshold.

It is used by the examples (`--validate` style flows) and by the
integration tests; a hardware bring-up would run the same suite against
the real board.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..accel.accelerator import SpeedLLMAccelerator
from ..llama.kv_cache import KVCache
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


def _validate_workload(
    accelerator: SpeedLLMAccelerator,
    reference: LlamaModel,
    tokens: Sequence[int],
    n_decode: int,
) -> tuple[int, int, float]:
    """Teacher-forced comparison over prompt + greedy continuation."""
    config = accelerator.model_config
    cache_accel = KVCache(config)
    cache_ref = reference.new_cache()

    positions = 0
    agreements = 0
    max_err = 0.0
    sequence = list(tokens)
    pos = 0
    budget = min(len(sequence) + n_decode, config.max_seq_len)
    token = sequence[0]
    while pos < budget - 1:
        logits_accel = accelerator.execute(token, pos, cache_accel)
        logits_ref = reference.forward(token, pos, cache_ref)
        max_err = max(max_err, float(np.max(np.abs(logits_accel - logits_ref))))
        accel_next = int(np.argmax(logits_accel))
        ref_next = int(np.argmax(logits_ref))
        agreements += int(accel_next == ref_next)
        positions += 1
        pos += 1
        if pos < len(sequence):
            token = sequence[pos]          # teacher forcing over the prompt
        else:
            token = ref_next               # greedy continuation
    return positions, agreements, max_err


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
        tokens = tokenizer.encode(workload.prompt, bos=True)
        positions, agreements, max_err = _validate_workload(
            accelerator, reference, tokens, n_decode=min(n_decode, workload.max_new_tokens)
        )
        report.prompts.append(PromptValidation(
            workload=workload.name,
            n_positions=positions,
            n_agreements=agreements,
            max_logit_error=max_err,
        ))
    return report
