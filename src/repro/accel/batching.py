"""Merging per-sequence decode-step programs into one batched program.

Continuous batching executes one decode position for several in-flight
sequences in a single pass over the model.  On the accelerator that pass
is *weight stationary*: every weight tile is streamed from HBM once and
all sequences' activation vectors are pushed through it before the next
tile is fetched.  The merger reproduces that cost structure from the
already-compiled single-sequence programs:

* **Weight-bearing MPE tiles** (``weight_bytes > 0``) collapse into one
  packet per tile: the weight transfer and the systolic fill/drain
  latency are charged once, while reduction passes, activation loads,
  result stores and MAC counts scale with the batch size.  This is where
  batched serving wins — single-token decode is HBM-bound on weight
  streaming, and the batch amortizes exactly that traffic.
* **Attention packets** read each sequence's own KV window, so they stay
  per-sequence: one packet per sequence with its own context-dependent
  load and compute.  Within a speculative *verify run* — consecutive
  slots of one request scoring its draft tokens — the window of slot
  ``i+1`` is the window of slot ``i`` plus the key/value the run itself
  just produced on chip, so followers charge only the *incremental* HBM
  bytes (usually zero); see :func:`batch_run_ids` and the ``run_ids``
  parameter of :func:`merge_batch_programs`.
* **SFU / DMA packets** (norms, RoPE, softmax, element-wise, embedding
  gather, KV append) operate on per-sequence activations and also stay
  per-sequence, but they share the operator's single instruction
  dispatch, so the per-operator control overhead is amortized too.

Weight tiles are merged by counting slots, not walking them: slots
sharing an operator's packet tuple (the compiler lowers an operator once)
form one group, summed once times its size; a slot sharing nothing is a
group of one.

The merged program runs on the unmodified
:class:`~repro.accel.pipeline.PipelineExecutor`, so pipelining, buffer
reuse and HBM channel contention apply to batched steps exactly as they
do to single-sequence steps.

The host computes a step's *values* in the same order
(:mod:`repro.accel.executor`): operator by operator, every slot's
activation row through a weight matrix before the next matrix is touched,
attention per slot against its own cache — so the amortization priced
here is also what makes the functional pass cheap, while each row stays
bit for bit what the slot yields alone.

The merger is shard-agnostic: execution backends merge whatever
single-sequence programs their :class:`~repro.compile.pipeline.
StepCompiler` lowers, so a tensor-parallel shard's narrowed
programs (fewer heads, thinner projections) batch exactly like the full
model's — the weight-stationary amortization applies per shard.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..llama.kv_cache import KVCache
from .config import MPEConfig
from .instructions import ComputeUnit, OpProgram, Program, TilePacket

__all__ = ["BatchSlot", "batch_run_ids", "block_padded_context",
           "merge_batch_programs"]


def block_padded_context(pos: int, block_tokens: int, max_seq_len: int) -> int:
    """Context length whose attention window covers whole KV blocks.

    Paged KV caches transfer keys/values at block granularity: a decode
    step at position ``pos`` attends over ``pos + 1`` cached positions but
    the HBM reads pull ``ceil((pos + 1) / block_tokens)`` full blocks.
    Simulating the step at the padded context charges exactly that
    traffic (and lets every position inside one block share a compiled
    program).  The result is clamped below ``max_seq_len``, which the
    graph builder requires of any context length.
    """
    if pos < 0:
        raise ValueError("pos must be >= 0")
    padded_window = KVCache.blocks_for(pos + 1, block_tokens) * block_tokens
    return min(padded_window, max_seq_len) - 1


@dataclass
class BatchSlot:
    """One token position executed in a batched accelerator step.

    A slot binds a token to the position it is fed at and the KV cache of
    the sequence it belongs to.  A prefill request contributes several
    consecutive slots in one step; a decoding request contributes one.
    ``need_logits`` is False for prompt positions whose logits are never
    sampled — those slots skip the final norm and classifier entirely.
    """

    token: int
    pos: int
    cache: KVCache
    need_logits: bool = True
    request_id: Optional[str] = None
    #: Part of a speculative verify run: consecutive speculative slots of
    #: one request share their KV window in the timing model (the run is
    #: one fused multi-token attention pass) and are rolled back together
    #: when draft tokens are rejected.
    speculative: bool = False

    def __post_init__(self) -> None:
        if self.pos < 0:
            raise ValueError("pos must be >= 0")


def batch_run_ids(slots: Sequence[BatchSlot]) -> Optional[List[int]]:
    """Group ids for run-aware program merging, or None when unneeded.

    Consecutive *speculative* slots of the same request form one verify
    run and share an id; every other slot gets its own.  Returns None
    when no slot is speculative, so non-speculative steps keep the exact
    merge (and cache keys) they had before speculative decoding existed.
    """
    if not any(slot.speculative for slot in slots):
        return None
    ids: List[int] = []
    next_id = 0
    prev_key: Optional[str] = None
    for slot in slots:
        key = (slot.request_id
               if slot.speculative and slot.request_id is not None else None)
        if key is not None and key == prev_key:
            ids.append(ids[-1])
        else:
            ids.append(next_id)
            next_id += 1
        prev_key = key
    return ids


def _merged_weight_tile(counted: Sequence[Tuple[TilePacket, int]],
                        mpe: MPEConfig) -> TilePacket:
    """Collapse one weight tile's per-sequence packets into a batched packet.

    ``counted`` holds ``(packet, n_slots)`` pairs: the tile as each group
    of slots that shares it lowered it, and how many slots the group has.
    ``tile_cycles = passes + pipeline_depth`` for a single activation
    vector; with the tile held stationary the array streams one vector per
    set of reduction passes and pays the fill/drain latency once, giving
    ``sum(passes_i) + pipeline_depth`` for the batch.
    """
    first = counted[0][0]
    depth = mpe.pipeline_depth
    compute = sum(n * max(p.compute_cycles - depth, 1) for p, n in counted) + depth
    return dataclasses.replace(
        first,
        load_bytes=first.weight_bytes
        + sum(n * (p.load_bytes - p.weight_bytes) for p, n in counted),
        compute_cycles=compute,
        store_bytes=sum(n * p.store_bytes for p, n in counted),
        macs=sum(n * p.macs for p, n in counted),
        sfu_flops=sum(n * p.sfu_flops for p, n in counted),
        onchip_bytes=sum(n * p.onchip_bytes for p, n in counted),
        # Scale application happens per activation vector; the weight-tile
        # byte saving (saved_bytes) is paid once per batch like the tile.
        dequant_flops=sum(n * p.dequant_flops for p, n in counted),
    )


def _slot_packet(packet: TilePacket, slot: int) -> TilePacket:
    """``packet`` as slot ``slot`` of a batch issues it."""
    return TilePacket(
        op_name=packet.op_name, unit=packet.unit,
        load_bytes=packet.load_bytes, compute_cycles=packet.compute_cycles,
        store_bytes=packet.store_bytes, macs=packet.macs,
        sfu_flops=packet.sfu_flops, onchip_bytes=packet.onchip_bytes,
        weight_bytes=packet.weight_bytes,
        dequant_flops=packet.dequant_flops, saved_bytes=packet.saved_bytes,
        label=f"{packet.label}#b{slot}",
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
    lead_index, lead = group[0]
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
        label=f"{lead.label}#run{lead_index}x{len(group)}",
    )


def merge_batch_programs(
    programs: Sequence[Program],
    mpe: MPEConfig,
    name: Optional[str] = None,
    run_ids: Optional[Sequence[int]] = None,
) -> Program:
    """Merge per-sequence decode-step programs into one batched program.

    All programs must come from the same decode-step graph topology (they
    may differ in context length: only the attention packets' costs vary
    with it).  The result orders work exactly like the single-sequence
    programs — operator by operator — with weight tiles batched and
    per-sequence packets interleaved behind a single dispatch.

    ``run_ids`` (one per program, consecutive slots of a run contiguous —
    see :func:`batch_run_ids`) marks speculative verify runs: attention
    packets of a run's followers charge only the incremental KV bytes
    their predecessor did not already stream, modelling the fused
    multi-token attention pass of a verify kernel.
    """
    if not programs:
        raise ValueError("at least one program is required")
    if run_ids is not None and len(run_ids) != len(programs):
        raise ValueError("run_ids must match programs in length")
    if len(programs) == 1:
        return programs[0]
    # Programs may differ in length: positions that skip the classifier
    # compile to a strict prefix of the full decode step (the final norm
    # and classifier are the topologically last operators).  Operators are
    # aligned from the front; each one merges the sequences that have it.
    n_ops = max(len(program.ops) for program in programs)
    merged = Program(name=name or f"{programs[0].name}-batch{len(programs)}")
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
        # Grouped by identity: hashing a tuple would walk every packet.
        shared = {id(op.packets): op.packets for _, op in op_versions}
        sizes = Counter(id(op.packets) for _, op in op_versions)
        groups = [(shared[key], n) for key, n in sizes.items()]
        if len({len(group_packets) for group_packets, _ in groups}) != 1:
            raise ValueError(
                f"operator {lead.op_name!r} has mismatched packet counts "
                "across the batch"
            )
        packets: List[TilePacket] = []
        for k, first in enumerate(lead.packets):
            if first.weight_bytes > 0:
                packets.append(_merged_weight_tile(
                    [(group_packets[k], n) for group_packets, n in groups], mpe
                ))
                continue
            versions = [(i, op.packets[k]) for i, op in op_versions]
            if run_ids is None:
                for i, packet in versions:
                    packets.append(_slot_packet(packet, i))
            else:
                # Group the consecutive slots of each verify run: their
                # per-sequence work fuses into one vectorized packet.
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
                        packets.append(_slot_packet(packet, i))
                    else:
                        packets.append(_merged_run_packet(group, mpe))
                    start = end
        merged.add(OpProgram(op_name=lead.op_name, unit=lead.unit,
                             packets=packets))
    merged.metadata["batch_size"] = len(programs)
    merged.metadata["graph"] = programs[0].metadata.get("graph")
    return merged
