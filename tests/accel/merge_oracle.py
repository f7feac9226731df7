"""The batch merge as it was before it counted slots: every slot's packet
is walked, one weight tile at a time.

``repro.accel.batching.merge_batch_programs`` now groups a step's slots
by the identity of each operator's (shared) packet tuple and merges
weight tiles as count-weighted sums over the distinct groups.  This is
the slot-walking body it replaced, kept as the oracle of
``tests/accel/test_merge_counted.py``, together with the verify-run
merge as it was before the merger built its packets directly and kept
them on the operators they came from.  Packets carry no names, so the
oracle names each merged packet itself, as the packets once named
themselves: every slot's own label, suffixed ``#b{slot}`` or
``#run{slot}x{n}``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.accel.config import MPEConfig
from repro.accel.instructions import ComputeUnit, OpProgram, Program, TilePacket

__all__ = ["merge_batch_programs"]


def _merged_weight_tile(packets: Sequence[TilePacket], mpe: MPEConfig) -> TilePacket:
    first = packets[0]
    depth = mpe.pipeline_depth
    compute = sum(max(p.compute_cycles - depth, 1) for p in packets) + depth
    return dataclasses.replace(
        first,
        load_bytes=first.weight_bytes
        + sum(p.load_bytes - p.weight_bytes for p in packets),
        compute_cycles=compute,
        store_bytes=sum(p.store_bytes for p in packets),
        macs=sum(p.macs for p in packets),
        sfu_flops=sum(p.sfu_flops for p in packets),
        onchip_bytes=sum(p.onchip_bytes for p in packets),
        dequant_flops=sum(p.dequant_flops for p in packets),
    )


def _merged_run_packet(
    group: Sequence[tuple], mpe: MPEConfig
) -> TilePacket:
    """Fuse one op's per-sequence packets across a speculative verify run.

    ``group`` holds ``(slot_index, packet)`` pairs for the consecutive
    positions of one request's verify run.  A multi-token verify kernel
    processes those positions in a single vectorized pass, so the run
    issues **one** packet per operator — paying the buffer acquisition,
    HBM access latency and dispatch slot once — instead of one packet per
    draft token:

    * **Attention products** (MPE packets without weights) share the KV
      window: position ``i+1`` attends over position ``i``'s window plus
      the key/value the run itself just produced on chip, so the fused
      packet loads the first position's window from HBM plus only the
      incremental bytes later positions add (non-zero only when paged
      block padding crosses a block boundary mid-run).  The re-read
      overlap moves to on-chip traffic; every position still pays its
      full score/context *compute*, pipelined like a weight tile
      (``sum(passes) + fill/drain once``).
    * **SFU / DMA packets** (norms, RoPE, softmax, KV appends) operate on
      per-position activations: bytes and flops sum, but the run shares
      one instruction and one transfer's access latency.
    """
    lead = group[0][1]
    if lead.unit is ComputeUnit.MPE:
        depth = mpe.pipeline_depth
        compute = sum(
            max(p.compute_cycles - depth, 1) for _, p in group
        ) + depth
        load = lead.load_bytes
        onchip = lead.onchip_bytes
        previous = lead
        for _, packet in group[1:]:
            incremental = max(packet.load_bytes - previous.load_bytes, 0)
            load += incremental
            onchip += packet.onchip_bytes + (packet.load_bytes - incremental)
            previous = packet
    else:
        compute = sum(p.compute_cycles for _, p in group)
        load = sum(p.load_bytes for _, p in group)
        onchip = sum(p.onchip_bytes for _, p in group)
    # Every position still applies its own dequant scales; the KV-window
    # byte saving is only realised once for the shared window (MPE), while
    # per-position stores (SFU appends) keep their per-position savings.
    saved = (lead.saved_bytes if lead.unit is ComputeUnit.MPE
             else sum(p.saved_bytes for _, p in group))
    return dataclasses.replace(
        lead,
        load_bytes=load,
        compute_cycles=compute,
        store_bytes=sum(p.store_bytes for _, p in group),
        macs=sum(p.macs for _, p in group),
        sfu_flops=sum(p.sfu_flops for _, p in group),
        onchip_bytes=onchip,
        dequant_flops=sum(p.dequant_flops for _, p in group),
        saved_bytes=saved,
    )


def merge_batch_programs(
    programs: Sequence[Program],
    mpe: MPEConfig,
    run_ids: Optional[Sequence[int]] = None,
) -> Program:
    if not programs:
        raise ValueError("at least one program is required")
    if run_ids is not None and len(run_ids) != len(programs):
        raise ValueError("run_ids must match programs in length")
    if len(programs) == 1:
        return programs[0]
    n_ops = max(len(program.ops) for program in programs)
    merged = Program()
    for j in range(n_ops):
        op_versions = [(i, program.ops[j])
                       for i, program in enumerate(programs)
                       if j < len(program.ops)]
        lead = op_versions[0][1]
        if any(op.op_name != lead.op_name for _, op in op_versions):
            raise ValueError(
                f"operator mismatch at index {j} "
                f"({sorted({op.op_name for _, op in op_versions})}); batched "
                "steps require a common decode-step topology prefix"
            )
        n_packets = {len(op.packets) for _, op in op_versions}
        if len(n_packets) != 1:
            raise ValueError(
                f"operator {lead.op_name!r} has mismatched packet counts "
                "across the batch"
            )
        packets: List[TilePacket] = []
        labels: List[str] = []
        names = {i: op.labels() for i, op in op_versions}
        for k in range(len(lead.packets)):
            versions = [(i, op.packets[k]) for i, op in op_versions]
            first = versions[0][1]
            if first.weight_bytes > 0:
                packets.append(_merged_weight_tile(
                    [p for _, p in versions], mpe
                ))
                labels.append(names[versions[0][0]][k])
            elif run_ids is None:
                for i, packet in versions:
                    packets.append(packet)
                    labels.append(f"{names[i][k]}#b{i}")
            else:
                start = 0
                while start < len(versions):
                    end = start + 1
                    anchor = versions[start][0]
                    while (end < len(versions)
                           and versions[end][0] == versions[end - 1][0] + 1
                           and run_ids[versions[end][0]] == run_ids[anchor]):
                        end += 1
                    group = versions[start:end]
                    if len(group) == 1:
                        i, packet = group[0]
                        packets.append(packet)
                        labels.append(f"{names[i][k]}#b{i}")
                    else:
                        packets.append(_merged_run_packet(group, mpe))
                        labels.append(f"{names[anchor][k]}#run{anchor}x{len(group)}")
                    start = end
        merged.add(OpProgram(lead.op_name, lead.unit, packets,
                             lambda labels=tuple(labels): labels))
    return merged
