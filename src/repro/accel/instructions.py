"""Tile-level instruction set of the accelerator.

The compiler lowers every graph operator into a sequence of
:class:`TilePacket` work units.  A packet is the granularity at which the
read–compute–write pipeline operates: it names how many bytes must be
loaded from off-chip memory before computing, how many cycles the compute
engine needs, how many MACs/FLOPs that represents (for the energy model),
and how many bytes must be written back afterwards.  It names nothing
else: a packet is a value, so equal tiles — the classifier's hundreds,
every decoder layer's projections — are one object.

A full decode step is a :class:`Program`: the ordered list of packets plus
per-operator boundaries so the execution statistics can be attributed back
to operators.

An :class:`OpProgram` is an operator's name and its packets, a
:class:`PacketBody`.  The body answers, in one pass over its packets,
what the cycle simulator asks of it: a *timing signature* per packet
(equal signatures time identically) and its :class:`PacketTotals`, the
sums that depend on the packets alone; from those, a hash of the
signatures for the whole operator and its runs of equal signatures.  And
it keeps what the batch merger and the cycle bracket build of it — its
weight tiles merged over a group of slots, its transfer terms.  The
compiler hands one body to every operator of one shape (every layer,
every context, with or without logits), so each of those is built once
per shape.  The names a trace gives the packets are a view,
:meth:`OpProgram.labels`, built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..graph.ops import ComputeUnit

__all__ = ["TilePacket", "PacketTotals", "PacketBody", "OpProgram", "Program"]


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


class PacketBody(tuple):
    """An operator's packets, in order — a tuple — and what the cycle
    simulator, its bracket and the batch merger compute of them, each
    built on first use and then a plain attribute of the body.  One body
    serves every operator of its shape, so each is built once per shape
    and lives exactly as long as the body."""

    @cached_property
    def _walk(self) -> Tuple[Tuple[Tuple, ...], PacketTotals]:
        """The one pass over the packets: :attr:`signatures` and
        :attr:`totals`."""
        shared: Dict[Tuple, Tuple] = {}
        signatures, opens = [], True
        macs = flops = onchip = dequant = saved = mpe_tiles = sfu_ops = 0
        read = written = compute = 0
        mpe, sfu = ComputeUnit.MPE, ComputeUnit.SFU
        for p in self:
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

    @cached_property
    def signatures(self) -> Tuple[Tuple, ...]:
        """Per packet, everything the cycle simulator reads of it: bytes
        loaded, compute cycles, bytes stored, whether the MPE computes it,
        and whether it opens the operator (and pays its dispatch).  Equal
        packets share one tuple."""
        return self._walk[0]

    @cached_property
    def totals(self) -> PacketTotals:
        """Sums of what the packets alone decide."""
        return self._walk[1]

    @cached_property
    def signature(self) -> int:
        """A hash of :attr:`signatures`: bodies that differ in it time
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
    def merged(self) -> Dict[Tuple[int, int], Tuple[Optional[TilePacket], ...]]:
        """What :func:`~repro.accel.batching.merge_batch_programs` built
        of this body: under ``(n_slots, pipeline_depth)``, the weight
        tiles merged over that many slots sharing it (None at every
        other packet).  They follow from the packets and the key alone."""
        return {}

    @cached_property
    def stream_terms(self) -> Dict[Tuple, Tuple[int, int, int]]:
        """What :meth:`~repro.accel.pipeline.PipelineExecutor.run`'s cycle
        bracket reads of these packets' transfers, under the key of the
        memory system and stripe they are timed on; filled by the
        executor."""
        return {}


#: How :meth:`OpProgram.labels` names the packets: per member of the
#: operator, ``(name, layer, tiles)``; or a function returning the labels.
Naming = Union[Tuple[Tuple[str, object, int], ...], Callable[[], Tuple[str, ...]]]


@dataclass(frozen=True)
class OpProgram:
    """The packets emitted for a single graph operator.

    Immutable: the compiler hands one :class:`PacketBody` to every
    operator of the same shape, whatever its name, layer or context.
    ``naming`` is what :meth:`labels` derives the packets' names from;
    it is not part of the value, so two operators are equal when their
    names and packets are.
    """

    op_name: str
    unit: ComputeUnit
    packets: PacketBody = PacketBody()
    naming: Naming = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.op_name:
            raise ValueError("op_name must not be empty")
        # A body is kept as is, so sharing survives.
        if type(self.packets) is not PacketBody:
            object.__setattr__(self, "packets", PacketBody(self.packets))

    def __len__(self) -> int:
        return len(self.packets)

    def labels(self) -> Tuple[str, ...]:
        """Per packet, the name a traced run gives its intervals.

        A compiled operator names each member's packets: ``{member}#t{i}``
        for its ``tiles`` weight tiles, ``{member}@L{layer}`` for an
        attention product, the member's name otherwise.  A merged
        operator's function adds the batch's suffixes.  An operator built
        without a naming names every packet after itself."""
        naming = self.naming
        if callable(naming):
            return naming()
        if not naming:
            return (self.op_name,) * len(self.packets)
        labels: List[str] = []
        for name, layer, tiles in naming:
            if tiles:
                labels.extend([f"{name}#t{i}" for i in range(tiles)])
            elif layer is not None:
                labels.append(f"{name}@L{layer}")
            else:
                labels.append(name)
        return tuple(labels)


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

    def labels(self) -> List[str]:
        """Every packet's label, in execution order."""
        return [label for op in self.ops for label in op.labels()]

    @property
    def totals(self) -> PacketTotals:
        """Sums of every operator's :attr:`PacketBody.totals`."""
        return PacketTotals._make(map(sum, zip(_NO_TOTALS, *[op.packets.totals
                                                             for op in self.ops])))
