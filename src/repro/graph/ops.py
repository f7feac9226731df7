"""Operator and tensor definitions for the Llama-2 compute graph IR.

The accelerator does not execute NumPy code directly: the model's decode
step is first expressed as a dataflow graph of coarse operators (matmuls,
norms, RoPE, attention, element-wise ops).  The fusion pass
(:mod:`repro.graph.fusion`) rewrites this graph, and the accelerator
compiler (:mod:`repro.accel.compiler`) lowers it to tile-level
instructions.

Each operator carries an analytic cost model — FLOPs, weight bytes,
activation input/output bytes — which the simulator uses for timing and
the memory manager uses for buffer sizing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


__all__ = ["OpKind", "TensorSpec", "Operator", "ComputeUnit"]


class ComputeUnit(enum.Enum):
    """Which accelerator engine executes an operator."""

    MPE = "mpe"      # Matrix Processing Engine (DSP matmul arrays)
    SFU = "sfu"      # Special Function Unit (norms, softmax, activations)
    DMA = "dma"      # pure data movement (embedding gather, cache append)


class OpKind(enum.Enum):
    """Coarse operator vocabulary of the Llama-2 decode step."""

    EMBED = "embed"                  # token embedding gather
    RMSNORM = "rmsnorm"
    MATMUL = "matmul"                # weight (out, in) @ activation (in,)
    ROPE = "rope"
    KV_APPEND = "kv_append"          # write new K/V vectors into the cache
    ATTN_SCORE = "attn_score"        # q · K^T / sqrt(d)
    SOFTMAX = "softmax"
    ATTN_CONTEXT = "attn_context"    # probs @ V
    SILU = "silu"
    MUL = "mul"                      # element-wise product
    ADD = "add"                      # residual add
    FUSED = "fused"                  # composite operator created by fusion

    @property
    def default_unit(self) -> ComputeUnit:
        """Engine that executes this operator kind."""
        if self in (OpKind.MATMUL, OpKind.ATTN_SCORE, OpKind.ATTN_CONTEXT):
            return ComputeUnit.MPE
        if self in (OpKind.EMBED, OpKind.KV_APPEND):
            return ComputeUnit.DMA
        if self is OpKind.FUSED:
            return ComputeUnit.MPE
        return ComputeUnit.SFU


@dataclass(frozen=True)
class TensorSpec:
    """A named tensor flowing through the graph.

    Attributes
    ----------
    name:
        Unique tensor name within the graph.
    shape:
        Tensor shape.
    dtype_bytes:
        Bytes per element as stored by the accelerator (activations are
        float32 by default; quantised weights may use 1).
    resident:
        Where the tensor lives before the op that consumes it runs:
        ``"offchip"`` (HBM/DDR), ``"onchip"`` (BRAM/URAM) or ``"none"``
        for values produced and consumed inside a fused region.
    is_weight:
        True for model parameters (streamed, never written back).
    """

    name: str
    shape: Tuple[int, ...]
    dtype_bytes: int = 4
    resident: str = "offchip"
    is_weight: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tensor name must not be empty")
        if any(s <= 0 for s in self.shape):
            raise ValueError(f"tensor {self.name!r} has non-positive dims {self.shape}")
        if self.dtype_bytes not in (1, 2, 4, 8):
            raise ValueError(f"unsupported dtype_bytes {self.dtype_bytes}")
        if self.resident not in ("offchip", "onchip", "none"):
            raise ValueError(f"unknown residency {self.resident!r}")

    @property
    def n_elements(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        return self.n_elements * self.dtype_bytes


@dataclass
class Operator:
    """One node of the compute graph.

    Cost-model fields (``flops``, ``weight_bytes``) are filled by the
    builder from the configuration.
    """

    name: str
    kind: OpKind
    inputs: List[str]
    outputs: List[str]
    flops: int = 0
    weight_bytes: int = 0
    attributes: Dict[str, object] = field(default_factory=dict)
    # For FUSED operators: the names/kinds of the original ops folded in.
    fused_ops: List["Operator"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operator name must not be empty")
        if not self.outputs:
            raise ValueError(f"operator {self.name!r} must produce at least one output")
        if self.flops < 0 or self.weight_bytes < 0:
            raise ValueError("cost fields must be non-negative")

    # ------------------------------------------------------------------
    @property
    def unit(self) -> ComputeUnit:
        """Compute unit this operator is assigned to."""
        explicit = self.attributes.get("unit")
        if isinstance(explicit, ComputeUnit):
            return explicit
        if self.kind is OpKind.FUSED and self.fused_ops:
            # A fused region runs on the MPE if any member needs it.
            if any(op.unit is ComputeUnit.MPE for op in self.fused_ops):
                return ComputeUnit.MPE
            return ComputeUnit.SFU
        return self.kind.default_unit

    def total_weight_bytes(self) -> int:
        """Weight bytes streamed for this operator (including fused members)."""
        if self.kind is OpKind.FUSED:
            return self.weight_bytes + sum(op.weight_bytes for op in self.fused_ops)
        return self.weight_bytes

    def total_flops(self) -> int:
        """FLOPs including fused members."""
        if self.kind is OpKind.FUSED:
            return self.flops + sum(op.flops for op in self.fused_ops)
        return self.flops

    def member_kinds(self) -> Tuple[OpKind, ...]:
        """Kinds of the operators folded into this node (itself if unfused)."""
        if self.kind is OpKind.FUSED:
            return tuple(op.kind for op in self.fused_ops)
        return (self.kind,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Operator({self.name!r}, {self.kind.value}, "
            f"in={self.inputs}, out={self.outputs})"
        )
