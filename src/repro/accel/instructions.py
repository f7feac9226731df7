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

An :class:`OpProgram` also answers, once, what the cycle simulator asks
of it: a *timing signature* per packet (equal signatures time
identically), a hash of them for the whole operator, its runs of equal
signatures and its totals of the counters that depend on the packets
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
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

    @cached_property
    def signatures(self) -> Tuple[Tuple, ...]:
        """Per packet, everything the cycle simulator reads of it: bytes
        loaded, compute cycles, bytes stored, whether the MPE computes it,
        and whether it opens the operator (and pays its dispatch).  Equal
        packets of one operator share one tuple."""
        shared: Dict[Tuple, Tuple] = {}
        signatures, opens, mpe = [], True, ComputeUnit.MPE
        for p in self.packets:
            key = (p.load_bytes, p.compute_cycles, p.store_bytes, p.unit is mpe, opens)
            signatures.append(shared.setdefault(key, key))
            opens = False
        return tuple(signatures)

    @cached_property
    def signature(self) -> int:
        """A hash of :attr:`signatures`: operators that differ in it time
        differently; equal ones very probably time the same."""
        return hash(self.signatures)

    @cached_property
    def runs(self) -> Tuple[Tuple[int, int], ...]:
        """``(first packet, length)`` of every maximal run of two or more
        packets with one signature."""
        runs, first = [], 0
        for _, run in groupby(self.signatures):
            length = len(list(run))
            if length >= 2:
                runs.append((first, length))
            first += length
        return tuple(runs)

    @cached_property
    def counter_totals(self) -> Tuple[int, ...]:
        """Sums of what the packets alone decide: MACs, SFU FLOPs, on-chip
        bytes, dequantisation FLOPs, quantisation-saved bytes, MPE tiles,
        SFU operations, and HBM bytes read and written."""
        macs = flops = onchip = dequant = saved = mpe_tiles = sfu_ops = 0
        read = written = 0
        mpe, sfu = ComputeUnit.MPE, ComputeUnit.SFU
        for p in self.packets:
            macs += p.macs
            flops += p.sfu_flops
            onchip += p.onchip_bytes
            dequant += p.dequant_flops
            saved += p.saved_bytes
            read += p.load_bytes
            written += p.store_bytes
            if p.unit is mpe:
                mpe_tiles += 1
            elif p.unit is sfu:
                sfu_ops += 1
        return macs, flops, onchip, dequant, saved, mpe_tiles, sfu_ops, read, written

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
