"""The SpeedLLM accelerator: configuration, compiler, simulation, variants."""

from .accelerator import AcceleratorGeneration, GenerationMetrics, SpeedLLMAccelerator
from .analytical import AnalyticalEstimate, AnalyticalModel
from .batching import BatchSlot, block_padded_context, merge_batch_programs
from .compiler import ProgramCompiler
from .dse import CandidateResult, DesignSpace, DesignSpaceExplorer, pareto_front
from .config import AcceleratorConfig, BufferConfig, MPEConfig, SFUConfig, VARIANT_NAMES
from .executor import GraphExecutor
from .instructions import OpProgram, Program, TilePacket
from .memory_manager import BufferPool
from .mpe import MPETimingModel, TileShape
from .pipeline import DISPATCH_CYCLES, PipelineExecutor, StepResult
from .sfu import SFUTimingModel
from .variants import PAPER_VARIANTS, VariantSpec

__all__ = [
    "AcceleratorGeneration",
    "GenerationMetrics",
    "SpeedLLMAccelerator",
    "AnalyticalEstimate",
    "AnalyticalModel",
    "BatchSlot",
    "block_padded_context",
    "merge_batch_programs",
    "CandidateResult",
    "DesignSpace",
    "DesignSpaceExplorer",
    "pareto_front",
    "ProgramCompiler",
    "AcceleratorConfig",
    "BufferConfig",
    "MPEConfig",
    "SFUConfig",
    "VARIANT_NAMES",
    "GraphExecutor",
    "OpProgram",
    "Program",
    "TilePacket",
    "BufferPool",
    "MPETimingModel",
    "TileShape",
    "DISPATCH_CYCLES",
    "PipelineExecutor",
    "StepResult",
    "SFUTimingModel",
    "PAPER_VARIANTS",
    "VariantSpec",
]
