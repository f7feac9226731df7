"""SpeedLLM reproduction: an FPGA LLM inference accelerator, simulated.

This package reproduces *SpeedLLM: An FPGA Co-design of Large Language
Model Inference Accelerator* (HPDC 2025) as a pure-Python system: a
llama2.c-compatible TinyLlama inference engine, an operator-graph compiler
with Llama-2 operator fusion, a cycle-level simulator of the accelerator
on a modelled Alveo U280 (Matrix Processing Engine, Special Function Unit,
memory management with cyclic buffer reuse, read–compute–write data
pipeline), an energy model, GPU cost comparators, and the benchmark
harness that regenerates the paper's evaluation figures.

Quick start::

    from repro import SpeedLLM
    llm = SpeedLLM(model="stories15M", variant="full")
    out = llm.generate("Once upon a time", max_new_tokens=32)
    print(out.text, out.latency_ms, out.decode_tokens_per_second)
"""

from .accel import AcceleratorConfig, GenerationMetrics, SpeedLLMAccelerator
from .api import (
    CompletionRequest,
    CompletionResponse,
    CompletionService,
    EngineConfig,
    PromptTooLongError,
    RequestHandle,
    RequestOutput,
    SamplingParams,
)
from .backend import ExecutionBackend
from .core import (
    ExperimentConfig,
    ExperimentRunner,
    SpeedLLM,
    SpeedLLMOutput,
    cost_efficiency_table,
)
from .fpga import FpgaPlatform, u280
from .kvpool import BlockAllocator, KVPool, PagedKVCache, PrefixIndex
from .llama import LlamaConfig, LlamaModel, Tokenizer, preset, synthesize_weights
from .serve import (
    AsyncServingEngine,
    Request,
    RequestState,
    Scheduler,
    SchedulerConfig,
    ServeReport,
    ServingEngine,
)

__version__ = "1.7.0"

__all__ = [
    "AcceleratorConfig",
    "GenerationMetrics",
    "SpeedLLMAccelerator",
    "CompletionRequest",
    "CompletionResponse",
    "CompletionService",
    "EngineConfig",
    "PromptTooLongError",
    "RequestHandle",
    "RequestOutput",
    "SamplingParams",
    "ExecutionBackend",
    "ExperimentConfig",
    "ExperimentRunner",
    "SpeedLLM",
    "SpeedLLMOutput",
    "cost_efficiency_table",
    "FpgaPlatform",
    "u280",
    "BlockAllocator",
    "KVPool",
    "PagedKVCache",
    "PrefixIndex",
    "LlamaConfig",
    "LlamaModel",
    "Tokenizer",
    "preset",
    "synthesize_weights",
    "AsyncServingEngine",
    "Request",
    "RequestState",
    "Scheduler",
    "SchedulerConfig",
    "ServeReport",
    "ServingEngine",
    "__version__",
]
