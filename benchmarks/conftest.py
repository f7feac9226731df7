"""Shared fixtures for the benchmark harness.

The ablation and cost-efficiency sweeps (``bench_*.py``; they need the
``bench`` extra's pytest-benchmark) run the paper's workload — the
stories15M model decoding TinyStories-style prompts on the simulated
U280 — through the same :class:`~repro.core.runner.ExperimentRunner` used
by the tests, then print (and save under ``benchmarks/results/``) their
rows.  The Fig. 2 tables themselves are ``speedllm bench``'s, and the
performance benchmark is ``benchmarks/perf/``.

Cycle-accurate simulation of every decode position would make the harness
slow, so the benchmarks use ``position_stride=16`` (documented accuracy:
within ~2% of stride 1, see tests/accel/test_accelerator.py).  Absolute
wall-clock numbers reported by pytest-benchmark measure *simulation* cost,
not accelerator latency; the accelerator metrics are in the printed tables
and the saved JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.runner import ExperimentConfig, ExperimentRunner
from repro.llama.checkpoint import synthesize_weights
from repro.llama.config import preset

RESULTS_DIR = Path(__file__).parent / "results"

#: the paper's evaluation workload (stories15M, short prompt, long decode)
PAPER_MODEL = "stories15M"
N_PROMPT = 8
N_GENERATED = 64
POSITION_STRIDE = 16


@pytest.fixture(scope="session")
def stories15m_checkpoint():
    """Synthetic stories15M-shaped checkpoint shared by every benchmark."""
    return synthesize_weights(preset(PAPER_MODEL), seed=0)


@pytest.fixture(scope="session")
def paper_runner(stories15m_checkpoint):
    """Runner configured like the paper's evaluation (Fig. 2 workload)."""
    config = ExperimentConfig(
        model=PAPER_MODEL,
        variants=("unoptimized", "no-pipeline", "no-reuse", "no-fusion", "full"),
        n_prompt=N_PROMPT,
        n_generated=N_GENERATED,
        position_stride=POSITION_STRIDE,
        energy_accounting="effective",
    )
    return ExperimentRunner(config, checkpoint=stories15m_checkpoint)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: Path, name: str, payload) -> Path:
    """Persist one benchmark's table for EXPERIMENTS.md."""
    path = results_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return path
