"""Accelerator configuration and the paper's design variants.

The SpeedLLM accelerator is described by a single configuration object.
The three optimizations the paper contributes are boolean features:

* ``pipeline``         — data-stream parallelism: the read–compute–write
  phases of consecutive tiles overlap through double buffers;
* ``memory_reuse``     — cyclic reuse of on-chip buffer segments as soon
  as they drain (the baseline waits for a whole batch of segments to
  finish before reusing any of them);
* ``operator_fusion``  — the graph-level fusion pass that keeps
  intermediate activations on chip.

``AcceleratorConfig.variant(...)`` builds the named design points used in
the evaluation (Fig. 2): ``full``, ``no-fusion``, ``no-pipeline``,
``no-reuse`` and ``unoptimized``.

How every weight and KV byte is stored is one field, ``quant`` (a
:class:`~repro.quant.config.QuantConfig`): the paper's int8 datapath by
default, :meth:`~repro.quant.config.QuantConfig.fp32` for full
precision, or a serving-level mode.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict

from ..fpga.resources import ResourceVector
from ..quant.config import QuantConfig
from .variants import PAPER_VARIANTS

__all__ = ["MPEConfig", "SFUConfig", "BufferConfig", "AcceleratorConfig"]


@dataclass(frozen=True)
class MPEConfig:
    """Matrix Processing Engine geometry.

    A ``rows x cols`` array of int8 multiply–accumulate units: each cycle
    it consumes ``cols`` activation elements and produces partial sums for
    ``rows`` output elements, i.e. ``rows * cols`` MACs per cycle.
    """

    rows: int = 64
    cols: int = 32
    pipeline_depth: int = 8          # systolic fill/drain latency in cycles
    dsp_per_mac: float = 1.0         # int8 MACs map one-to-one onto DSP48s

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("MPE rows and cols must be positive")
        if self.pipeline_depth < 0:
            raise ValueError("pipeline_depth must be >= 0")
        if self.dsp_per_mac <= 0:
            raise ValueError("dsp_per_mac must be positive")

    @property
    def macs_per_cycle(self) -> int:
        return self.rows * self.cols

    def resources(self) -> ResourceVector:
        """Programmable-logic cost of the array."""
        n_macs = self.rows * self.cols
        return ResourceVector(
            dsp=int(n_macs * self.dsp_per_mac),
            lut=n_macs * 40,
            ff=n_macs * 60,
            bram_36k=self.rows // 2,
        )


@dataclass(frozen=True)
class SFUConfig:
    """Special Function Unit: vector lanes for norms/softmax/activations."""

    lanes: int = 16                  # float operations per cycle
    op_latency: int = 12             # fixed pipeline latency per operator

    def __post_init__(self) -> None:
        if self.lanes <= 0:
            raise ValueError("SFU lanes must be positive")
        if self.op_latency < 0:
            raise ValueError("op_latency must be >= 0")

    def resources(self) -> ResourceVector:
        return ResourceVector(
            dsp=self.lanes * 8,
            lut=self.lanes * 900,
            ff=self.lanes * 1200,
            bram_36k=8,
        )


@dataclass(frozen=True)
class BufferConfig:
    """On-chip activation/weight staging buffers.

    ``n_segments`` ping-pong segments of ``segment_kb`` each.  The memory
    reuse strategy operates on these segments.
    """

    n_segments: int = 8
    segment_kb: int = 128
    reuse_flush_cycles: int = 160    # drain/reallocation penalty without reuse

    def __post_init__(self) -> None:
        if self.n_segments <= 0:
            raise ValueError("n_segments must be positive")
        if self.segment_kb <= 0:
            raise ValueError("segment_kb must be positive")
        if self.reuse_flush_cycles < 0:
            raise ValueError("reuse_flush_cycles must be >= 0")

    @property
    def segment_bytes(self) -> int:
        return self.segment_kb * 1024

    @property
    def total_bytes(self) -> int:
        return self.n_segments * self.segment_bytes

    def resources(self) -> ResourceVector:
        # URAM blocks hold 32 KB each; BRAM used for small control FIFOs.
        uram = (self.total_bytes + 32 * 1024 - 1) // (32 * 1024)
        return ResourceVector(uram=uram, bram_36k=16, lut=20_000, ff=25_000)


@dataclass(frozen=True)
class AcceleratorConfig:
    """Complete accelerator design point."""

    name: str = "speedllm-full"
    mpe: MPEConfig = field(default_factory=MPEConfig)
    sfu: SFUConfig = field(default_factory=SFUConfig)
    buffers: BufferConfig = field(default_factory=BufferConfig)
    # optimization toggles (the paper's three contributions)
    pipeline: bool = True
    memory_reuse: bool = True
    operator_fusion: bool = True
    #: How every weight and KV byte is stored (per tensor): the graph
    #: builder annotates each operator with its streamed bytes per
    #: element and the functional path fake-quantises to match.
    quant: QuantConfig = field(default_factory=QuantConfig.datapath)
    hbm_stripe: int = 16             # pseudo-channels one DMA burst is spread over
    trace_enabled: bool = False
    # compilation pipeline (see repro.compile)
    #: Search candidate tile plans per step shape and keep the lowest-cycle
    #: program (False = the fixed tiling, bit-identical to the historical
    #: compiler output).
    autotune_tiling: bool = False
    #: Context-length bucket granularity of the compile cache: contexts
    #: round *up* to the bucket boundary so steady-state decode steps
    #: compile once per bucket.  1 = exact shapes (historical behaviour).
    ctx_bucket: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.quant, QuantConfig):
            raise TypeError(f"quant must be a QuantConfig, got {self.quant!r}")
        if self.hbm_stripe <= 0:
            raise ValueError("hbm_stripe must be positive")
        if self.ctx_bucket < 1:
            raise ValueError("ctx_bucket must be >= 1")

    # ------------------------------------------------------------------
    def resources(self) -> ResourceVector:
        """Total programmable-logic footprint of the design."""
        controller = ResourceVector(lut=60_000, ff=80_000, bram_36k=48)
        return (
            self.mpe.resources()
            + self.sfu.resources()
            + self.buffers.resources()
            + controller
        )

    def replace(self, **changes) -> "AcceleratorConfig":
        """Copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        """Flat description for reports."""
        return {
            "name": self.name,
            "mpe": f"{self.mpe.rows}x{self.mpe.cols}",
            "sfu_lanes": self.sfu.lanes,
            "buffer_kb": self.buffers.total_bytes // 1024,
            "pipeline": self.pipeline,
            "memory_reuse": self.memory_reuse,
            "operator_fusion": self.operator_fusion,
            "quant": self.quant.label,
            "hbm_stripe": self.hbm_stripe,
            "autotune_tiling": self.autotune_tiling,
            "ctx_bucket": self.ctx_bucket,
        }

    # ------------------------------------------------------------------
    @classmethod
    def variant(cls, name: str, **overrides) -> "AcceleratorConfig":
        """Build one of the paper's evaluation design points
        (:data:`~repro.accel.variants.PAPER_VARIANTS`).

        ``full`` enables all three optimizations; ``unoptimized`` disables
        all of them; ``no-X`` disables exactly one.  Additional keyword
        overrides are applied on top.
        """
        if name not in PAPER_VARIANTS:
            raise KeyError(
                f"unknown variant {name!r}; available: {sorted(PAPER_VARIANTS)}")
        spec = PAPER_VARIANTS[name]
        config = cls(
            name=f"speedllm-{name}",
            pipeline=spec.pipeline,
            memory_reuse=spec.memory_reuse,
            operator_fusion=spec.operator_fusion,
        )
        if overrides:
            config = config.replace(**overrides)
        return config
