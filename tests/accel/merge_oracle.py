"""The batch merge as it was before it counted slots: every slot's packet
is walked, one weight tile at a time.

``repro.accel.batching.merge_batch_programs`` now groups a step's slots
by the identity of each operator's (shared) packet tuple and merges
weight tiles as count-weighted sums over the distinct groups.  This is
the slot-walking body it replaced, kept verbatim as the oracle of
``tests/accel/test_merge_counted.py``.  Only weight tiles changed; the
speculative verify-run merge is the module's own.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.accel.batching import _merged_run_packet
from repro.accel.config import MPEConfig
from repro.accel.instructions import OpProgram, Program, TilePacket

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
        for k in range(len(lead.packets)):
            versions = [(i, op.packets[k]) for i, op in op_versions]
            first = versions[0][1]
            if first.weight_bytes > 0:
                packets.append(_merged_weight_tile(
                    [p for _, p in versions], mpe
                ))
            elif run_ids is None:
                for i, packet in versions:
                    packets.append(dataclasses.replace(
                        packet, label=f"{packet.label}#b{i}"
                    ))
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
                        packets.append(dataclasses.replace(
                            packet, label=f"{packet.label}#b{i}"
                        ))
                    else:
                        packets.append(_merged_run_packet(group, mpe))
                    start = end
        merged.add(OpProgram(op_name=lead.op_name, unit=lead.unit,
                             packets=packets))
    return merged
