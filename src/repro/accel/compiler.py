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

An operator is lowered once per compiler: its packets depend only on its
*signature* (its fields, its fused members' and the specs of the tensors
they name) and on what is fixed per compiler, so one immutable
:class:`OpProgram` per signature is shared by every graph — projections
at every context length, attention operators once per window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..compile.tiling import DEFAULT_PLAN, TilingPlan, clamped_fold
from ..graph.graph import Graph
from ..graph.ops import ComputeUnit, Operator, OpKind, TensorSpec
from .config import AcceleratorConfig
from .instructions import OpProgram, Program, TilePacket
from .mpe import MPETimingModel
from .sfu import SFUTimingModel

__all__ = ["ProgramCompiler"]

_ACT_BYTES = 4


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class ProgramCompiler:
    """Compiles decode-step graphs for a given accelerator configuration.

    ``plan`` selects the tiling (:class:`~repro.compile.tiling.
    TilingPlan`): how many row blocks fold into one weight tile.  The
    default plan reproduces the historical fixed tiling bit for bit.
    """

    def __init__(self, config: AcceleratorConfig,
                 plan: Optional[TilingPlan] = None) -> None:
        self.config = config
        self.plan = plan or DEFAULT_PLAN
        self.mpe = MPETimingModel(config.mpe)
        self.sfu = SFUTimingModel(config.sfu)
        self._lowered: Dict[Tuple, OpProgram] = {}

    # ------------------------------------------------------------------
    def compile(self, graph: Graph, name: Optional[str] = None) -> Program:
        """Lower ``graph`` to a :class:`Program`."""
        ops = [self.compile_op(graph, op) for op in graph.topological_order()]
        return self.program(ops, graph.name, len(graph), name)

    def program(self, ops: List[OpProgram], graph_name: str, n_graph_ops: int,
                name: Optional[str] = None) -> Program:
        """The :class:`Program` of ``ops`` lowered from a graph named
        ``graph_name`` of ``n_graph_ops`` operators, as :meth:`compile`
        returns it."""
        program = Program(name=name or graph_name, ops=ops)
        program.metadata["graph"] = graph_name
        program.metadata["n_graph_ops"] = n_graph_ops
        if not self.plan.is_default:
            program.metadata["tiling_plan"] = self.plan.label
        return program

    # ------------------------------------------------------------------
    # Residency helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _is_cache_view(spec: TensorSpec) -> bool:
        return ".cache_" in spec.name or spec.name.startswith("cache_")

    # ------------------------------------------------------------------
    # Per-operator lowering
    # ------------------------------------------------------------------
    @classmethod
    def _signature(cls, graph: Graph, op: Operator) -> Tuple:
        """Everything of ``graph`` and ``op`` that lowering ``op`` reads."""
        return (op.name, op.kind, op.flops, op.weight_bytes,
                tuple(op.attributes.items()), tuple(op.inputs), tuple(op.outputs),
                tuple([graph.tensors.get(t) for t in (*op.inputs, *op.outputs)]),
                tuple([cls._signature(graph, m) for m in op.fused_ops]))

    def compile_op(self, graph: Graph, op: Operator) -> OpProgram:
        """The program of ``graph``'s operator ``op``, lowered once per
        signature."""
        key = self._signature(graph, op)
        lowered = self._lowered.get(key)
        if lowered is None:
            lowered = self._lowered[key] = self._lower_op(graph, op)
        return lowered

    def _lower_op(self, graph: Graph, op: Operator) -> OpProgram:
        """Lower ``op`` as a fused region — a plain operator is one of a
        single member — whose members run back to back.

        Each member loads only the *external* inputs it consumes itself and
        stores only its outputs that leave the region; tensors internal to
        the region are forwarded on chip (charged as on-chip traffic on the
        producing member's first packet) and generate no HBM transactions.
        """
        members = op.fused_ops if op.kind is OpKind.FUSED else (op,)
        produced_inside = {t for m in members for t in m.outputs}
        external_outputs = set(op.outputs)
        packets: List[TilePacket] = []
        for member in members:
            load_act = 0
            for tname in member.inputs:
                if tname in produced_inside:
                    continue
                spec = graph.tensor(tname) if tname in graph.tensors else None
                if spec is None or spec.is_weight:
                    continue
                if spec.resident == "offchip":
                    load_act += spec.nbytes
            store_act = self._member_store_bytes(graph, member, external_outputs)
            onchip_forwarded = sum(
                self._internal_tensor_bytes(graph, member, t)
                for t in member.outputs if t not in external_outputs
            )
            if member.kind is OpKind.MATMUL:
                member_packets = self._matmul_packets(member, load_act, store_act)
            elif member.kind in (OpKind.ATTN_SCORE, OpKind.ATTN_CONTEXT):
                member_packets = self._attention_packets(member, load_act, store_act)
            else:
                member_packets = [self._sfu_packet(member, load_act, store_act)]
            if member_packets and onchip_forwarded:
                first = member_packets[0]
                member_packets[0] = TilePacket(
                    op_name=first.op_name, unit=first.unit,
                    load_bytes=first.load_bytes,
                    compute_cycles=first.compute_cycles,
                    store_bytes=first.store_bytes, macs=first.macs,
                    sfu_flops=first.sfu_flops,
                    onchip_bytes=first.onchip_bytes + onchip_forwarded,
                    weight_bytes=first.weight_bytes,
                    dequant_flops=first.dequant_flops,
                    saved_bytes=first.saved_bytes,
                    label=first.label,
                )
            packets.extend(member_packets)
        return OpProgram(op_name=op.name, unit=op.unit, packets=packets)

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
        tiles = self.mpe.split_matvec(out_features, in_features,
                                      tile_rows=self.config.mpe.rows * fold)
        n_tiles = len(tiles)
        packets: List[TilePacket] = []
        for i, tile in enumerate(tiles):
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
            # output slice bytes, last tile takes any rounding remainder
            store_slice = store_act // n_tiles if n_tiles else 0
            if i == n_tiles - 1:
                store_slice = store_act - store_slice * (n_tiles - 1)
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
            packets.append(TilePacket(
                op_name=op.name,
                unit=ComputeUnit.MPE,
                load_bytes=weight_bytes + act_load,
                compute_cycles=compute_cycles,
                store_bytes=store_slice,
                macs=tile.macs,
                sfu_flops=dequant_flops,
                onchip_bytes=tile.out_rows * _ACT_BYTES,
                weight_bytes=weight_bytes,
                dequant_flops=dequant_flops,
                saved_bytes=saved_bytes,
                label=f"{op.name}#t{i}",
            ))
        return packets

    def _attention_packets(self, op: Operator, load_act: int, store_act: int) -> List[TilePacket]:
        """Score / context products: per-head mat-vecs over the cached window.

        One packet per operator: flops = 2 * heads * head_dim * attn_len
        (macs = flops / 2), and the cache-window read comes from the
        graph residency of the cache-view input, so it grows with the
        context length.  The packet count is never window-derived, so
        per-operator packet counts line up across a batch, which
        :func:`~repro.accel.batching.merge_batch_programs` requires.
        """
        attn_len = int(op.attributes.get("attn_len", 1))
        layer = op.attributes.get("layer", "?")
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
        return [TilePacket(
            op_name=op.name,
            unit=ComputeUnit.MPE,
            load_bytes=load_act,
            compute_cycles=compute,
            store_bytes=store_act,
            macs=macs,
            sfu_flops=kv_dequant,
            onchip_bytes=attn_len * _ACT_BYTES,
            dequant_flops=kv_dequant,
            saved_bytes=kv_saved,
            label=f"{op.name}@L{layer}",
        )]

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
            op_name=op.name,
            unit=unit,
            load_bytes=load_act,
            compute_cycles=cycles,
            store_bytes=store_act,
            sfu_flops=op.flops + dequant_flops,
            onchip_bytes=0,
            dequant_flops=dequant_flops,
            saved_bytes=saved_bytes,
            label=op.name,
        )
