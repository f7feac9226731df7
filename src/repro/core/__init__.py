"""Top-level API, experiment runner, metrics, cost comparators, reports."""

from .cost import (
    GPU_A100,
    GPU_V100S,
    CostEfficiencyEntry,
    DeviceSpec,
    cost_efficiency_table,
    gpu_decode_throughput,
)
from .metrics import (
    LatencySummary,
    VariantResult,
    normalized_energy_efficiency,
    normalized_latency,
    percentile,
    speedup,
)
from .report import Report, format_table, render_bar_chart, write_json
from .runner import ExperimentConfig, ExperimentRunner
from .speedllm import SpeedLLM, SpeedLLMOutput
from .validation import PromptValidation, ValidationReport, validate_accelerator

__all__ = [
    "GPU_A100",
    "GPU_V100S",
    "CostEfficiencyEntry",
    "DeviceSpec",
    "cost_efficiency_table",
    "gpu_decode_throughput",
    "LatencySummary",
    "VariantResult",
    "normalized_energy_efficiency",
    "normalized_latency",
    "percentile",
    "speedup",
    "Report",
    "format_table",
    "render_bar_chart",
    "write_json",
    "ExperimentConfig",
    "ExperimentRunner",
    "SpeedLLM",
    "SpeedLLMOutput",
    "PromptValidation",
    "ValidationReport",
    "validate_accelerator",
]
