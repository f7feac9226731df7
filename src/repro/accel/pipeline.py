"""Read–compute–write pipeline executor (paper contribution 1).

This module turns a compiled :class:`~repro.accel.instructions.Program`
into a cycle count.  Two execution disciplines are supported, selected by
the accelerator configuration:

* **Pipelined** (``pipeline=True``): three stages — loader, compute,
  writer — connected by depth-2 streams (ping-pong buffers).  While tile
  *i* is being computed, tile *i+1* is already streaming in and tile
  *i-1* is being written back, so the step time approaches
  ``max(load, compute, store)`` per tile instead of their sum.  This is
  the paper's "multi-level read-compute-write iteration".
* **Sequential** (``pipeline=False``): one controller performs load, then
  compute, then store for each tile before touching the next — the
  "unoptimized" read-compute-write cycle the paper compares against.

Both disciplines acquire an on-chip buffer segment per tile from the
:class:`~repro.accel.memory_manager.BufferPool`, so the memory-reuse
policy applies to either.  A fixed dispatch overhead is charged when an
operator's first packet is fetched (instruction decode / kernel launch),
which is why operator fusion — fewer, larger operators — also saves
control cycles.  An operator with no packets is never fetched: it
dispatches nothing and costs nothing, under either discipline.

Each discipline is a plain loop over the packets; there is no event
queue.  Sequential is one requester, so a running ``now`` is its whole
state.  Pipelined is a merge of two cursors — the next packet whose read
the loader issues and the next packet computed and written back —
because reads and posted writes share one HBM channel arbiter whose
picks depend on the order of the calls.  Every *cycle* in the recurrence
is a ``max`` of earlier cycles and needs no tie-break; what needs one is
the order of a read and a write issued on the same cycle, which the
three-process simulation this replaces (now the oracle in
``tests/accel/kernel_oracle.py``) left to the FIFO order of its event
queue.  Here it is spelled out: every moment at which a stage acts is
named by a **key** ``(cycle, key of the moment that scheduled it, index
among what that moment scheduled)``.  A FIFO queue runs same-cycle
entries in the order they were scheduled, which is (the order their
schedulers ran, position within the scheduler) — so tuple comparison of
two keys *is* the queue's order, recursively.  ``docs/ARCHITECTURE.md``
tabulates the key of every moment.

A comparison descends one level per pair of ancestors that tie on their
cycle: a few levels when packets take time, but as deep as the run for
consecutive packets that load nothing, compute for zero cycles and store
nothing (no compiled program has one) — some 300 in a row exhaust
CPython's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..fpga.u280 import FpgaPlatform
from ..graph.ops import ComputeUnit
from ..sim.memory import MemoryPort
from ..sim.stats import RunCounters
from ..sim.trace import Trace
from .config import AcceleratorConfig
from .instructions import Program, TilePacket
from .memory_manager import NEVER, BufferPool

__all__ = ["StepResult", "PipelineExecutor", "DISPATCH_CYCLES"]

#: control cycles charged once per operator program (instruction dispatch)
DISPATCH_CYCLES = 24

#: parent of the three stages' first keys (see the module docstring)
_ROOT = (-1,)


@dataclass
class StepResult:
    """Outcome of simulating one decode-step program.

    ``engine_busy["mpe"|"sfu"]`` are cycles the engine computed.
    ``engine_busy["load"|"store"]`` are *sums of in-flight intervals*
    (issue to completion, per transfer): a pipelined design keeps several
    transfers outstanding, so they overlap and the sum may exceed
    ``cycles`` — :attr:`load_utilization` clamps the ratio to 1.
    """

    program_name: str
    cycles: int
    counters: RunCounters
    trace: Optional[Trace] = None
    engine_busy: Dict[str, int] = field(default_factory=dict)
    n_flushes: int = 0

    @property
    def mpe_utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.engine_busy.get("mpe", 0) / self.cycles)

    @property
    def load_utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.engine_busy.get("load", 0) / self.cycles)


class PipelineExecutor:
    """Times compiled programs on the accelerator micro-architecture."""

    def __init__(self, config: AcceleratorConfig, platform: FpgaPlatform) -> None:
        self.config = config
        self.platform = platform

    # ------------------------------------------------------------------
    def run(self, program: Program) -> StepResult:
        """Simulate one program and return its cycle count and counters."""
        counters = RunCounters()
        trace = Trace() if self.config.trace_enabled else None
        memory = MemoryPort(self.platform.hbm, self.platform.clock_hz, counters, trace)
        pool = BufferPool(self.config.buffers, reuse=self.config.memory_reuse)
        # One pass over the program: the packets in execution order, which
        # of them open an operator (and pay its dispatch), and the counters
        # that depend on the packets alone.
        packets: List[TilePacket] = []
        opens: List[bool] = []
        for op_program in program.ops:
            opens.extend(j == 0 for j in range(len(op_program.packets)))
            packets.extend(op_program.packets)
        for packet in packets:
            counters.int8_macs += packet.macs
            counters.sfu_flops += packet.sfu_flops
            counters.onchip_read_bytes += packet.onchip_bytes
            counters.dequant_flops += packet.dequant_flops
            counters.quant_saved_bytes += packet.saved_bytes
            if packet.unit is ComputeUnit.MPE:
                counters.mpe_tiles += 1
            elif packet.unit is ComputeUnit.SFU:
                counters.sfu_ops += 1
        counters.instructions = len(packets)
        counters.onchip_write_bytes = counters.onchip_read_bytes

        discipline = self._run_pipelined if self.config.pipeline else self._run_sequential
        busy = {"load": 0, "mpe": 0, "sfu": 0, "store": 0}
        end = discipline(packets, opens, memory, pool, counters, busy, trace)
        return StepResult(
            program_name=program.name,
            cycles=max([end] + [flush_end[0] for flush_end, _ in pool.flushes]),
            counters=counters,
            trace=trace,
            engine_busy=busy,
            n_flushes=pool.n_flushes,
        )

    # ------------------------------------------------------------------
    # Sequential (unoptimized) discipline
    # ------------------------------------------------------------------
    def _run_sequential(self, packets: Sequence[TilePacket], opens: List[bool],
                        memory: MemoryPort, pool: BufferPool, counters: RunCounters,
                        busy: Dict[str, int], trace: Optional[Trace]) -> int:
        """Returns the cycle of the last compute end or store completion."""
        stripe = self.config.hbm_stripe
        now = last_store = flushes_traced = 0
        for packet, opens_operator in zip(packets, opens):
            if opens_operator:
                now += DISPATCH_CYCLES
            # One requester: a release on the cycle of the request is as
            # good as one before it, so keys are bare ``(cycle,)`` tuples.
            granted = pool.acquire((now,))[0]
            counters.buffer_stall_cycles += granted - now
            now = granted
            if trace is not None:
                # A flush empties the pool, so it has ended by the time the
                # next segment is granted.
                flushes_traced = _trace_flushes(trace, pool, flushes_traced)
            # read: the sequential controller has a single outstanding
            # request, so it is exposed to the full access latency of
            # every transfer.
            if packet.load_bytes:
                loaded = memory.read_striped(packet.load_bytes, stripe, now, packet.label)
                busy["load"] += loaded - now
                now = loaded
            # compute
            engine = "mpe" if packet.unit is ComputeUnit.MPE else "sfu"
            start = now
            now += packet.compute_cycles
            busy[engine] += packet.compute_cycles
            if trace is not None:
                trace.record(engine, packet.label, start, now)
            # write back: stores are posted (the controller does not wait
            # for the write acknowledgement), but the staging segment is
            # only recycled once the data has left it.
            if packet.store_bytes:
                stored = memory.write_striped(packet.store_bytes, stripe, now, packet.label)
                busy["store"] += stored - now
                last_store = max(last_store, stored)
                pool.release((stored,))
            else:
                pool.release((now,))
        pool.settle()
        if trace is not None:
            _trace_flushes(trace, pool, flushes_traced)
        return max(now, last_store)

    # ------------------------------------------------------------------
    # Pipelined (data-stream parallel) discipline
    # ------------------------------------------------------------------
    def _run_pipelined(self, packets: Sequence[TilePacket], opens: List[bool],
                       memory: MemoryPort, pool: BufferPool, counters: RunCounters,
                       busy: Dict[str, int], trace: Optional[Trace]) -> int:
        """Returns the cycle of the last compute end or store completion."""
        stripe = self.config.hbm_stripe
        n_packets = len(packets)
        # Keys, per packet j — granted[j]: the loader holds j's segment and
        # issues its read; loaded[j]: that read completes; asks[j]: the
        # compute stage asks the ``loaded`` stream for j.
        granted: List[Tuple] = []
        loaded: List[Tuple] = []
        asks: List[Tuple] = [(0, _ROOT, 1)]
        tags: List[Tuple] = []   # tracing: the key of each event recorded

        def tag(key: Tuple) -> None:
            """Every event recorded since the last call was recorded at ``key``."""
            tags.extend([key] * (len(trace.events) - len(tags)))

        # i: next packet to read; k: next packet to compute and write back,
        # i - 3 <= k < i (two stream slots plus the tile being computed).
        i = k = 0
        request = grant = None   # the loader's acquire for i, and its outcome
        computed = None          # k's compute ends (``None``: not derived yet)
        turn = NEVER             # ... and the writer takes it
        start = last_store = 0
        while k < n_packets:
            if request is None and i < n_packets and i - 3 <= k:
                # Where the loader resumes after handing over packet i-1:
                # at once if the depth-2 stream had room, else when the
                # compute stage takes packet i-3 out of it.
                if i == 0:
                    request = (0, _ROOT, 0)
                else:
                    previous = granted[i - 1]
                    request = (previous[0], previous, 2)
                    if i >= 3 and previous < asks[i - 3]:
                        request = (asks[i - 3][0], asks[i - 3], 0)
                # Instruction dispatch for a new operator happens in the
                # front-end and briefly stalls the fetch stage.
                if opens[i]:
                    request = (request[0] + DISPATCH_CYCLES, request, 0)
            if computed is None and k < i:
                # The compute stage has packet k once it has asked for it
                # and the loader has handed it over, whichever is later —
                # and starts once the data has arrived as well.
                ask, handed = asks[k], granted[k]
                ready = (ask[0], ask, 1) if handed < ask else (handed[0], handed, 1)
                if loaded[k] < ready:
                    start, cause = ready[0], ready
                else:
                    start, cause = loaded[k][0], loaded[k]
                    counters.memory_stall_cycles += start - ready[0]
                computed = (start + packets[k].compute_cycles, cause, 0)
                turn = (computed[0], computed, 0)
            if grant is None and request is not None and request < turn:
                # Releases before the writer's next turn are all posted.
                grant = pool.acquire(request, before=turn)
                if grant is not None:
                    counters.buffer_stall_cycles += grant[0] - request[0]
            if grant is not None and grant < turn:
                # The loader *issues* the tile's read as soon as it holds a
                # segment and hands the in-flight transfer to the compute
                # stage through the stream; it does not wait for the data
                # itself.  Together with the depth-2 streams this keeps
                # several memory requests outstanding, which is what hides
                # the HBM access latency ("data stream parallelism").
                packet = packets[i]
                arrives = grant[0]
                if packet.load_bytes:
                    arrives = memory.read_striped(
                        packet.load_bytes, stripe, grant[0], packet.label)
                    if trace is not None:
                        tag(grant)
                granted.append(grant)
                loaded.append((arrives, grant, 0))
                i += 1
                request = grant = None
                continue
            packet = packets[k]
            if packet.load_bytes:
                busy["load"] += start - granted[k][0]
            engine = "mpe" if packet.unit is ComputeUnit.MPE else "sfu"
            busy[engine] += packet.compute_cycles
            if trace is not None:
                trace.record(engine, packet.label, start, computed[0])
                tag(computed)
            # Write-back is fire-and-forget: the store is issued and the
            # buffer segment is released when the memory system confirms
            # it, so small result slices never stall the compute stage.
            if packet.store_bytes:
                stored = memory.write_striped(
                    packet.store_bytes, stripe, computed[0], packet.label)
                busy["store"] += stored - computed[0]
                last_store = max(last_store, stored)
                pool.release((stored, turn, 0))
                if trace is not None:
                    tag(turn)
            else:
                pool.release(turn)
            asks.append((computed[0], computed, 1))
            k += 1
            computed, turn = None, NEVER
        pool.settle()
        if trace is not None:
            # Events were recorded in the order of the merge, which is the
            # queue's only for reads against writes; the keys restore it
            # for the computes and flushes recorded between them.
            _trace_flushes(trace, pool, 0)
            tags.extend(flush_end for flush_end, _ in pool.flushes)
            events = trace.events
            events[:] = [events[j] for j in sorted(range(len(tags)), key=tags.__getitem__)]
        return max(asks[-1][0], last_store)


def _trace_flushes(trace: Trace, pool: BufferPool, already: int) -> int:
    """Record the pool's flushes from the ``already``-th on; returns their count."""
    for flush_end, start in pool.flushes[already:]:
        trace.record("buffer-pool", "flush", start, flush_end[0], category="stall")
    return len(pool.flushes)
