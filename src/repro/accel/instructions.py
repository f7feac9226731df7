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

An :class:`OpProgram` also answers, in one pass over its packets, what
the cycle simulator asks of it: a *timing signature* per packet (equal
signatures time identically) and its :class:`PacketTotals`, the sums
that depend on the packets alone; from those, a hash of the signatures
for the whole operator and its runs of equal signatures.  And it keeps
what the batch merger and the cycle bracket build of it — its packets as
one slot of a batch issues them, its weight tiles merged over a group of
slots, its transfer terms — for as long as the operator lives: a step
compiler hands one operator to every slot and step, so each of those is
built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..graph.ops import ComputeUnit

__all__ = ["TilePacket", "PacketTotals", "OpProgram", "Program"]


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
        # One comparison on the way in; the fields are named only when
        # one of them is negative.
        if min(self.load_bytes, self.compute_cycles, self.store_bytes,
               self.macs, self.sfu_flops, self.onchip_bytes,
               self.weight_bytes, self.dequant_flops, self.saved_bytes) < 0:
            for name in ("load_bytes", "compute_cycles", "store_bytes",
                         "macs", "sfu_flops", "onchip_bytes", "weight_bytes",
                         "dequant_flops", "saved_bytes"):
                if getattr(self, name) < 0:
                    raise ValueError(f"{name} must be >= 0")
        if self.weight_bytes > self.load_bytes:
            raise ValueError("weight_bytes cannot exceed load_bytes")


class PacketTotals(NamedTuple):
    """Sums over packets of what they alone decide: the first nine are
    :class:`~repro.sim.stats.RunCounters` fields, set before a run walks
    the packets; ``compute_cycles`` is the compute stage's work, a term
    of the run's cycle bracket."""

    int8_macs: int
    sfu_flops: int
    onchip_read_bytes: int
    dequant_flops: int
    quant_saved_bytes: int
    mpe_tiles: int
    sfu_ops: int
    hbm_read_bytes: int
    hbm_write_bytes: int
    compute_cycles: int


_NO_TOTALS = PacketTotals(*[0] * len(PacketTotals._fields))


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
    def _walk(self) -> Tuple[Tuple[Tuple, ...], PacketTotals]:
        """The one pass over the packets: :attr:`signatures` and
        :attr:`totals`."""
        shared: Dict[Tuple, Tuple] = {}
        signatures, opens = [], True
        macs = flops = onchip = dequant = saved = mpe_tiles = sfu_ops = 0
        read = written = compute = 0
        mpe, sfu = ComputeUnit.MPE, ComputeUnit.SFU
        for p in self.packets:
            key = (p.load_bytes, p.compute_cycles, p.store_bytes, p.unit is mpe, opens)
            signatures.append(shared.setdefault(key, key))
            opens = False
            macs += p.macs
            flops += p.sfu_flops
            onchip += p.onchip_bytes
            dequant += p.dequant_flops
            saved += p.saved_bytes
            read += p.load_bytes
            written += p.store_bytes
            compute += p.compute_cycles
            if p.unit is mpe:
                mpe_tiles += 1
            elif p.unit is sfu:
                sfu_ops += 1
        return tuple(signatures), PacketTotals(
            macs, flops, onchip, dequant, saved, mpe_tiles, sfu_ops, read, written, compute)

    @property
    def signatures(self) -> Tuple[Tuple, ...]:
        """Per packet, everything the cycle simulator reads of it: bytes
        loaded, compute cycles, bytes stored, whether the MPE computes it,
        and whether it opens the operator (and pays its dispatch).  Equal
        packets of one operator share one tuple."""
        return self._walk[0]

    @property
    def totals(self) -> PacketTotals:
        """Sums of what the packets alone decide."""
        return self._walk[1]

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
    def merged_packets(self) -> Dict[object, Tuple[Optional[TilePacket], ...]]:
        """What :func:`~repro.accel.batching.merge_batch_programs` built
        of this operator, one entry per packet (None where it builds
        something else): under a slot index, the packets that slot of a
        batch issues; under ``(n_slots, pipeline_depth)``, the weight
        tiles merged over that many slots sharing the operator.  Both
        follow from the packets and the key alone, and an entry lives
        exactly as long as the operator."""
        return {}

    @cached_property
    def stream_terms(self) -> Dict[Tuple, Tuple[int, int, int]]:
        """What :meth:`~repro.accel.pipeline.PipelineExecutor.run`'s cycle
        bracket reads of this operator's transfers, under the key of the
        memory system and stripe they are timed on; filled by the
        executor, and it lives exactly as long as the operator."""
        return {}


@dataclass
class Program:
    """A compiled decode step: ordered operator programs."""

    ops: List[OpProgram] = field(default_factory=list)

    def add(self, op_program: OpProgram) -> None:
        self.ops.append(op_program)

    def __len__(self) -> int:
        return len(self.ops)

    def packets(self) -> Iterator[TilePacket]:
        """Iterate every packet in execution order."""
        for op in self.ops:
            yield from op.packets

    @property
    def totals(self) -> PacketTotals:
        """Sums of every operator's :attr:`OpProgram.totals`."""
        return PacketTotals._make(map(sum, zip(_NO_TOTALS, *[op.totals for op in self.ops])))
