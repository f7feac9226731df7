"""Tile-level instruction set of the accelerator.

The compiler lowers every graph operator into a sequence of
:class:`TilePacket` work units.  A packet is the granularity at which the
read–compute–write pipeline operates: it names how many bytes must be
loaded from off-chip memory before computing, how many cycles the compute
engine needs, how many MACs/FLOPs that represents (for the energy model),
and how many bytes must be written back afterwards.

A full decode step is a :class:`Program`: the ordered list of packets plus
per-operator boundaries so the execution statistics can be attributed back
to operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from ..graph.ops import ComputeUnit

__all__ = ["TilePacket", "OpProgram", "Program"]


@dataclass(frozen=True)
class TilePacket:
    """One unit of pipelined work (load → compute → store).

    ``weight_bytes`` records how much of ``load_bytes`` is model-weight
    streaming (as opposed to per-token activations).  Weights are shared
    by every sequence in a batched decode step, so the batch merger uses
    this split to charge the weight transfer once per batch while the
    activation traffic scales with the number of sequences.

    ``dequant_flops`` counts the per-group scale applications the SFU
    performs to reconstruct quantised operands at the accumulator, and
    ``saved_bytes`` records how many HBM bytes the quantised encoding
    removed from this packet relative to float32 storage (both are zero
    on unquantised programs).
    """

    op_name: str
    unit: ComputeUnit
    load_bytes: int
    compute_cycles: int
    store_bytes: int
    macs: int = 0
    sfu_flops: int = 0
    onchip_bytes: int = 0
    weight_bytes: int = 0
    dequant_flops: int = 0
    saved_bytes: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("load_bytes", "compute_cycles", "store_bytes",
                     "macs", "sfu_flops", "onchip_bytes", "weight_bytes",
                     "dequant_flops", "saved_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.weight_bytes > self.load_bytes:
            raise ValueError("weight_bytes cannot exceed load_bytes")

    @property
    def moves_data(self) -> bool:
        return self.load_bytes > 0 or self.store_bytes > 0


@dataclass(frozen=True)
class OpProgram:
    """The packets emitted for a single graph operator.

    Immutable: the compiler hands the same lowered operator to every
    program whose graph holds an operator of the same signature.
    """

    op_name: str
    unit: ComputeUnit
    packets: Tuple[TilePacket, ...] = ()

    def __post_init__(self) -> None:
        if not self.op_name:
            raise ValueError("op_name must not be empty")
        # A tuple is kept as is (``tuple(t) is t``), so sharing survives.
        object.__setattr__(self, "packets", tuple(self.packets))

    def __len__(self) -> int:
        return len(self.packets)

    @property
    def load_bytes(self) -> int:
        return sum(p.load_bytes for p in self.packets)

    @property
    def store_bytes(self) -> int:
        return sum(p.store_bytes for p in self.packets)

    @property
    def compute_cycles(self) -> int:
        return sum(p.compute_cycles for p in self.packets)

    @property
    def macs(self) -> int:
        return sum(p.macs for p in self.packets)


@dataclass
class Program:
    """A compiled decode step: ordered operator programs."""

    name: str
    ops: List[OpProgram] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add(self, op_program: OpProgram) -> None:
        self.ops.append(op_program)

    def __len__(self) -> int:
        return len(self.ops)

    def packets(self) -> Iterator[TilePacket]:
        """Iterate every packet in execution order."""
        for op in self.ops:
            yield from op.packets

    @property
    def n_packets(self) -> int:
        return sum(len(op) for op in self.ops)

    @property
    def total_load_bytes(self) -> int:
        return sum(op.load_bytes for op in self.ops)

    @property
    def total_store_bytes(self) -> int:
        return sum(op.store_bytes for op in self.ops)

    @property
    def total_offchip_bytes(self) -> int:
        return self.total_load_bytes + self.total_store_bytes

    @property
    def total_compute_cycles(self) -> int:
        return sum(op.compute_cycles for op in self.ops)

    @property
    def total_macs(self) -> int:
        return sum(op.macs for op in self.ops)

    def by_unit(self) -> Dict[ComputeUnit, List[OpProgram]]:
        """Group operator programs by compute unit."""
        out: Dict[ComputeUnit, List[OpProgram]] = {}
        for op in self.ops:
            out.setdefault(op.unit, []).append(op)
        return out

    def summary(self) -> Dict[str, int]:
        """Aggregate statistics used by tests and reports."""
        return {
            "n_ops": len(self.ops),
            "n_packets": self.n_packets,
            "load_bytes": self.total_load_bytes,
            "store_bytes": self.total_store_bytes,
            "compute_cycles": self.total_compute_cycles,
            "macs": self.total_macs,
        }
