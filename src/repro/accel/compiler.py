"""Lower an operator graph into tile-level accelerator programs.

The compiler walks the (optionally fused) decode-step graph in topological
order and emits one :class:`~repro.accel.instructions.OpProgram` per
operator:

* **Matmul-like operators** (projections, classifier, attention score /
  context) are split into weight tiles matching the MPE geometry.  Each
  tile packet loads its slice of the weight matrix (plus, on the first
  tile, any off-chip activation inputs), computes on the MPE and stores
  its slice of the result if the result leaves the chip.
* **SFU operators** (norms, RoPE, softmax, element-wise, KV append,
  embedding gather) become a single packet on the SFU with their
  analytical cycle count.
* **Fused operators** expand their members in order, but tensors internal
  to the fused region generate no load/store traffic — that is precisely
  the benefit of operator fusion, and it falls out of the graph structure
  because the fusion pass removed those tensors.

Activation residency model: activations travelling between *separate*
graph operators live in off-chip memory (the host-visible activation
buffer), so they cost a store on the producer and a load on the consumer.
Weights always stream from HBM.  The KV cache lives in HBM; appends write
only the new position, while attention reads the whole cached window.

Lowering is memoised per operator *shape*: everything it reads of an
operator but its names and layer — each member's kind, costs and
attributes, and the activation bytes the graph's tensor specs decide
(the cache-view reads and appends included).  Every decoder layer, and
every context's attention at one window, lowers once, and operators of
one shape share one :class:`~repro.accel.instructions.PacketBody`; only
the names they label their packets by are their own.  Within a matmul,
equal consecutive tiles are one packet object.  The unit that repeats
beyond that is a whole step, and
:class:`~repro.compile.pipeline.StepCompiler` lowers it once per tiling
plan, then only the KV-window operators once per context.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..compile.tiling import DEFAULT_PLAN, TilingPlan, clamped_fold
from ..graph.graph import Graph
from ..graph.ops import ComputeUnit, Operator, OpKind, TensorSpec
from .config import AcceleratorConfig
from .instructions import OpProgram, PacketBody, Program, TilePacket
from .mpe import MPETimingModel, TileShape
from .sfu import SFUTimingModel

__all__ = ["ProgramCompiler"]

_ACT_BYTES = 4

#: The member kinds whose packet is labelled with its layer.
_ATTENTION = frozenset({OpKind.ATTN_SCORE, OpKind.ATTN_CONTEXT})


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class ProgramCompiler:
    """Compiles decode-step graphs for a given accelerator configuration.

    ``plan`` selects the tiling (:class:`~repro.compile.tiling.
    TilingPlan`): how many row blocks fold into one weight tile.  The
    default plan reproduces the historical fixed tiling bit for bit.
    The compiler keeps every operator shape it lowered, for its
    lifetime (a step compiler keeps one per tiling plan).
    """

    def __init__(self, config: AcceleratorConfig,
                 plan: Optional[TilingPlan] = None) -> None:
        self.config = config
        self.plan = plan or DEFAULT_PLAN
        self.mpe = MPETimingModel(config.mpe)
        self.sfu = SFUTimingModel(config.sfu)
        #: Operator shape → its packets and, per member, its weight
        #: tiles (0 for a member that is not a matmul).
        self._shapes: Dict[Tuple, Tuple[PacketBody, Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    def compile(self, graph: Graph) -> Program:
        """Lower ``graph`` to a :class:`Program`: one operator program per
        operator, in topological order."""
        return Program([self._lower_op(graph, op) for op in graph.topological_order()])

    # ------------------------------------------------------------------
    # Residency helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _is_cache_view(spec: TensorSpec) -> bool:
        return ".cache_" in spec.name or spec.name.startswith("cache_")

    # ------------------------------------------------------------------
    # Per-operator lowering
    # ------------------------------------------------------------------
    def _lower_op(self, graph: Graph, op: Operator) -> OpProgram:
        """Lower ``op`` as a fused region — a plain operator is one of a
        single member — whose members run back to back.

        Each member loads only the *external* inputs it consumes itself and
        stores only its outputs that leave the region; tensors internal to
        the region are forwarded on chip (charged as on-chip traffic on the
        producing member's first packet) and generate no HBM transactions.
        An operator of a shape lowered before takes that shape's packets.
        """
        members = op.fused_ops if op.kind is OpKind.FUSED else (op,)
        produced_inside = {t for m in members for t in m.outputs}
        external_outputs = set(op.outputs)
        # The shape: per member what lowering reads of it, in one flat
        # tuple — kind, costs, the bytes it loads, stores and forwards on
        # chip, and its attributes but the layer.
        shape: List = []
        traffic: List[Tuple[int, int, int]] = []
        tensors = graph.tensors
        for member in members:
            load_act = 0
            for tname in member.inputs:
                if tname in produced_inside:
                    continue
                spec = tensors.get(tname)
                if spec is not None and not spec.is_weight and spec.resident == "offchip":
                    load_act += spec.nbytes
            store_act = self._member_store_bytes(graph, member, external_outputs)
            onchip_forwarded = sum(
                self._internal_tensor_bytes(graph, member, t)
                for t in member.outputs if t not in external_outputs
            )
            attributes = member.attributes
            shape += (member.kind, member.flops, member.weight_bytes, load_act,
                      store_act, onchip_forwarded, len(attributes) - ("layer" in attributes))
            for item in attributes.items():
                if item[0] != "layer":
                    shape += item
            traffic.append((load_act, store_act, onchip_forwarded))
        key = tuple(shape)
        lowered = self._shapes.get(key)
        if lowered is None:
            lowered = self._shapes[key] = self._lower_shape(members, traffic)
        packets, tiles = lowered
        naming = tuple(
            (member.name,
             member.attributes.get("layer", "?") if member.kind in _ATTENTION else None,
             n_tiles)
            for member, n_tiles in zip(members, tiles))
        return OpProgram(op.name, op.unit, packets, naming)

    def _lower_shape(self, members: Sequence[Operator],
                     traffic: Sequence[Tuple[int, int, int]]
                     ) -> Tuple[PacketBody, Tuple[int, ...]]:
        """The packets of one operator shape, and per member its weight
        tiles: ``traffic`` holds each member's activation bytes loaded,
        stored and forwarded on chip."""
        packets: List[TilePacket] = []
        tiles: List[int] = []
        for member, (load_act, store_act, onchip_forwarded) in zip(members, traffic):
            if member.kind is OpKind.MATMUL:
                member_packets = self._matmul_packets(member, load_act, store_act)
                tiles.append(len(member_packets))
            elif member.kind in _ATTENTION:
                member_packets = [self._attention_packet(member, load_act, store_act)]
                tiles.append(0)
            else:
                member_packets = [self._sfu_packet(member, load_act, store_act)]
                tiles.append(0)
            if onchip_forwarded:
                first = member_packets[0]
                member_packets[0] = replace(
                    first, onchip_bytes=first.onchip_bytes + onchip_forwarded)
            packets.extend(member_packets)
        return PacketBody(packets), tuple(tiles)

    def _member_store_bytes(self, graph: Graph, member: Operator,
                            external_outputs: set) -> int:
        """Off-chip bytes stored by one member of a fused region."""
        total = 0
        for tname in member.outputs:
            if tname not in external_outputs or tname not in graph.tensors:
                continue
            spec = graph.tensor(tname)
            if spec.resident != "offchip":
                continue
            if member.kind is OpKind.KV_APPEND and self._is_cache_view(spec):
                total += spec.shape[-1] * spec.dtype_bytes
            else:
                total += spec.nbytes
        return total

    @staticmethod
    def _internal_tensor_bytes(graph: Graph, member: Operator, tname: str) -> int:
        """Size of a fusion-internal tensor (removed from the graph).

        The fusion pass drops these tensors from the graph's tensor table,
        so their size is reconstructed from the member's cost annotations:
        element-wise members produce as many elements as their FLOP count
        implies, matmuls produce ``out_features`` elements.
        """
        if tname in graph.tensors:
            return graph.tensor(tname).nbytes
        if member.kind is OpKind.MATMUL:
            return int(member.attributes.get("out_features", 0)) * _ACT_BYTES
        if member.kind is OpKind.RMSNORM:
            return (member.flops // 4) * _ACT_BYTES
        if member.kind is OpKind.ROPE:
            return (member.flops // 6) * _ACT_BYTES
        if member.kind is OpKind.SILU:
            return (member.flops // 4) * _ACT_BYTES
        if member.kind in (OpKind.MUL, OpKind.ADD):
            return member.flops * _ACT_BYTES
        if member.kind in (OpKind.SOFTMAX, OpKind.ATTN_SCORE):
            return (member.flops // 5 if member.kind is OpKind.SOFTMAX
                    else member.flops // 2) * _ACT_BYTES
        return 0

    # ------------------------------------------------------------------
    def _matmul_packets(self, op: Operator, load_act: int, store_act: int) -> List[TilePacket]:
        out_features = int(op.attributes.get("out_features", 0))
        in_features = int(op.attributes.get("in_features", 0))
        if out_features <= 0 or in_features <= 0 or "wbytes_per_el" not in op.attributes:
            raise ValueError(f"matmul {op.name!r} lacks shape attributes "
                             "(out_features, in_features, wbytes_per_el)")
        # The graph says how many bytes each weight element streams; an
        # operator whose scales stream too (``quant_group``, 0 for a
        # float32 one) is charged against float32 for ``saved_bytes``.
        wb = float(op.attributes["wbytes_per_el"])
        quantized = "quant_group" in op.attributes
        group = int(op.attributes.get("quant_group", 0))
        # The plan's fold is clamped per operator so a folded tile's
        # weight slice still fits one on-chip staging segment; operators
        # whose unfolded tile already exceeds it keep the fixed tiling.
        fold = clamped_fold(self.plan, in_features, self.config.mpe.rows,
                            wb, self.config.buffers.segment_bytes)
        runs = self.mpe.split_matvec(out_features, in_features,
                                     tile_rows=self.config.mpe.rows * fold)
        n_tiles = sum(count for _, count in runs)
        # output slice bytes, last tile takes any rounding remainder
        store_slice = store_act // n_tiles

        def packet(i: int, tile: TileShape) -> TilePacket:
            """Tile ``i`` of the operator, of shape ``tile``."""
            weight_bytes = int(tile.out_rows * tile.in_features * wb)
            saved_bytes = (
                max(0, int(tile.out_rows * tile.in_features * (_ACT_BYTES - wb)))
                if quantized else 0
            )
            if group > 0:
                # One scale application per (row, group) reconstructs the
                # tile's partial sums from the integer group accumulators.
                dequant_flops = tile.out_rows * _ceil_div(tile.in_features, group)
            else:
                dequant_flops = 0
            # With the cyclic memory-reuse strategy the activation vector is
            # fetched once and stays resident across the operator's tiles;
            # without it every tile re-fetches its inputs because the
            # staging segment holding them has already been surrendered.
            if self.config.memory_reuse:
                act_load = load_act if i == 0 else 0
            else:
                act_load = load_act
            # Scale application runs on a rescale stage pipelined into
            # the MPE drain path, one multiplier per array row: while the
            # array accumulates group g+1, the stage rescales group g's
            # partials.  The tile is bound by the slower of the two, not
            # their sum — for group sizes >= half the array columns the
            # rescale always hides behind the reduction passes.
            mac_cycles = self.mpe.tile_cycles(tile)
            if dequant_flops:
                compute_cycles = max(
                    mac_cycles,
                    _ceil_div(dequant_flops, self.config.mpe.rows),
                )
            else:
                compute_cycles = mac_cycles
            return TilePacket(
                unit=ComputeUnit.MPE,
                load_bytes=weight_bytes + act_load,
                compute_cycles=compute_cycles,
                store_bytes=(store_act - store_slice * (n_tiles - 1)
                             if i == n_tiles - 1 else store_slice),
                macs=tile.macs,
                sfu_flops=dequant_flops,
                onchip_bytes=tile.out_rows * _ACT_BYTES,
                weight_bytes=weight_bytes,
                dequant_flops=dequant_flops,
                saved_bytes=saved_bytes,
            )

        # Only a run's first and last tile can differ from the rest (the
        # activation load, the store remainder), so a run is at most
        # three packets, each built once; equal ones are one object.
        packets: List[TilePacket] = []
        for tile, count in runs:
            i = len(packets)
            first = packet(i, tile)
            if count == 1:
                packets.append(first)
                continue
            last = packet(i + count - 1, tile)
            middle = packet(i + 1, tile) if count > 2 else last
            if middle == first:
                middle = first
            if last == middle:
                last = middle
            packets += [first] + [middle] * (count - 2) + [last]
        return packets

    def _attention_packet(self, op: Operator, load_act: int, store_act: int) -> TilePacket:
        """Score / context products: per-head mat-vecs over the cached window.

        One packet per operator: flops = 2 * heads * head_dim * attn_len
        (macs = flops / 2), and the cache-window read comes from the
        graph residency of the cache-view input, so it grows with the
        context length.  The packet count is never window-derived, so
        per-operator packet counts line up across a batch, which
        :func:`~repro.accel.batching.merge_batch_programs` requires.
        """
        attn_len = int(op.attributes.get("attn_len", 1))
        macs = op.flops // 2
        depth = self.config.mpe.pipeline_depth
        # Quantised KV windows stream their per-group scales alongside the
        # int8 payload and pay per-group scale applications on the SFU.
        load_act += int(op.attributes.get("kv_scale_bytes", 0))
        kv_saved = int(op.attributes.get("kv_saved_bytes", 0))
        kv_dequant = int(op.attributes.get("kv_dequant_flops", 0))
        compute = max(
            depth,
            macs // self.config.mpe.macs_per_cycle + depth,
        )
        if kv_dequant:
            # Per-group scale application runs in the drain-path rescale
            # stage as the window streams in; the op is bound by the
            # slower of the two.
            compute = max(compute, _ceil_div(kv_dequant, self.config.mpe.rows))
        return TilePacket(
            unit=ComputeUnit.MPE,
            load_bytes=load_act,
            compute_cycles=compute,
            store_bytes=store_act,
            macs=macs,
            sfu_flops=kv_dequant,
            onchip_bytes=attn_len * _ACT_BYTES,
            dequant_flops=kv_dequant,
            saved_bytes=kv_saved,
        )

    def _sfu_packet(self, op: Operator, load_act: int, store_act: int) -> TilePacket:
        unit = ComputeUnit.SFU if op.kind is not OpKind.EMBED else ComputeUnit.DMA
        if op.kind is OpKind.EMBED:
            # The embedding gather streams one table row from HBM.
            load_act += op.weight_bytes
        # Quantisation annotations: the embed gather dequantises its row
        # elementwise; a KV append quantises the new vectors and stores
        # their per-group scales next to the int8 payload.
        dequant_flops = (int(op.attributes.get("dequant_flops", 0))
                         + int(op.attributes.get("kv_quant_flops", 0)))
        saved_bytes = (int(op.attributes.get("saved_bytes", 0))
                       + int(op.attributes.get("kv_saved_store_bytes", 0)))
        store_act += int(op.attributes.get("kv_scale_store_bytes", 0))
        cycles = self.sfu.op_cycles(op)
        if dequant_flops:
            cycles += _ceil_div(dequant_flops, self.config.sfu.lanes)
        return TilePacket(
            unit=unit,
            load_bytes=load_act,
            compute_cycles=cycles,
            store_bytes=store_act,
            sfu_flops=op.flops + dequant_flops,
            onchip_bytes=0,
            dequant_flops=dequant_flops,
            saved_bytes=saved_bytes,
        )
