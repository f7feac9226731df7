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

A run owns one :class:`~repro.fpga.hbm.MemorySystemModel` and issues each
transfer as one ``issue_split`` call on it.  Traffic is counted once:
``hbm_read_bytes``/``hbm_write_bytes`` are the packets' byte sums, set
before the walk with the other counters the packets alone decide, and
``dma_transfers`` is the model's ``total_transactions`` after it.

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

The recurrence is made of ``max`` and ``+``, so a machine state that
recurs shifted by Δ cycles recurs with its whole future shifted by Δ, as
long as the packets ahead repeat too.  An untraced run therefore stops at
a few packet boundaries — inside long runs of timing-identical packets
and at operators whose sequence repeats (the classifier's tiles, the
decoder layers) — to compare the state with the ones it has seen, in
this run and in the executor's previous untraced run.  On a match ``p``
packets back it jumps whole periods at once: the live keys are rebuilt
``m·Δ`` later, and every counter, busy cycle, flush and HBM total grows
by ``m`` times what it grew in the period.  On a match with the previous
run, whose packets ahead are the same, it jumps to that run's farthest
later check those packets reach, shifted, and grows every total by what
that run's grew on the way (see :class:`_Periods`).  Consecutive decode
positions differ only in their attention windows, so a run mostly
follows the previous one.  What a run reads of its packets lives on the
operator bodies it shares with other runs — their timing signatures,
totals, runs of one signature and transfer terms, each built once per
body — and two runs are compared body by body before packet by packet,
so a run pays for the operators it walks into, not for the ones it
jumps.  The result is the one walking every packet gives;
``StepResult.packets_replayed`` counts what was jumped.  A traced
run (``trace_enabled``) lists every interval, as a
:class:`~repro.obs.tracer.Span` on the ``cycles`` clock in
``StepResult.spans``, and neither jumps nor becomes the next run's
reference.

Every run, traced or not, ends by holding its cycle count to
:func:`_cycle_bracket` — closed-form lower and upper bounds argued from
the two disciplines, with no tolerance — and its compute engines' busy
cycles to the run's length, and raises :class:`RuntimeError` if either
fails.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..fpga.hbm import MemorySystemModel
from ..fpga.u280 import FpgaPlatform
from ..obs.tracer import CYCLES, Span
from ..sim.stats import RunCounters
from .config import AcceleratorConfig
from .instructions import OpProgram, PacketBody, Program
from .memory_manager import NEVER, BufferPool

__all__ = ["StepResult", "PipelineExecutor", "DISPATCH_CYCLES"]

#: control cycles charged once per operator program (instruction dispatch)
DISPATCH_CYCLES = 24


def _cycle_bracket(ops: Sequence[OpProgram], n_packets: int, compute: int,
                   config: AcceleratorConfig, platform: FpgaPlatform) -> Tuple[int, int]:
    """``(lower, upper)``: the cycles of any run of the non-empty operators
    ``ops`` (``n_packets`` packets computing for ``compute`` cycles in
    all) lie in between.  :meth:`PipelineExecutor.run` raises unless its
    result does, so the analytical model is a law every simulation obeys.

    A transfer of ``n`` bytes is split as ``issue_split`` splits it, its
    last stripe the largest; ``burst(b) = ceil(b / bytes_per_cycle)`` is
    the model's bus time for a stripe of ``b`` bytes.  ``xfer(n)`` is
    ``burst`` of its last stripe plus the access latency: its time on
    idle channels, and a lower bound on its time whatever the channels
    hold, as every stripe starts no earlier than its issue.  The terms:

    * ``XL``, ``XS``: ``xfer`` summed over the loads, over the stores;
    * ``M``: every stripe's burst, loads and stores, summed and spread
      over all ``n_channels`` channels (rounded up);
    * ``C``: ``compute``;
    * ``D``: ``DISPATCH_CYCLES`` per operator;
    * ``F``: without reuse, one ``reuse_flush_cycles`` per flush, one
      flush per ``n_segments`` releases (a release per packet); else 0.

    **Lower, both disciplines: max(M, C) + F.**  A channel's bus carries
    one stripe at a time and the compute stage one packet at a time
    (pipelined: packet ``k`` starts after ``k - 1`` ends).  A packet
    holds its segment from before its read is issued until its compute
    has ended and its write completed, and during a flush every segment
    is retired, none held: no stripe is on a bus and nothing computes.
    Flushes do not overlap, as one frees the pool before the next.

    **Pipelined, also D, and DISPATCH_CYCLES + xfer(L₀) + C + xfer(Sₙ).**
    Each grant is no earlier than the previous one plus the dispatch of
    an operator's first packet, and the last packet computes after its
    grant.  ``D + F`` would be wrong: the loader dispatches without
    holding a segment, so a dispatch overlaps a flush.  The second term
    is one chain of causes: the first request waits one dispatch, as
    packet 0 opens an operator; packet 0's compute starts no earlier
    than its data arrives, at least ``xfer(L₀)`` after the grant (``L₀``
    its load bytes; no term when it loads nothing); computes are serial,
    each asking for its packet when the previous one ends, so the last
    compute ends at least ``C`` after packet 0's started; and the run
    ends no earlier than the last packet's store completes, at least
    ``xfer(Sₙ)`` after that compute ended (``Sₙ`` its store bytes; no
    term when it stores nothing).

    **Sequential, also XL + C + max(D, F).**  One controller with one
    request outstanding: its dispatches, buffer waits, reads and computes
    are disjoint, and a read takes at least ``xfer``.  From one compute's end
    to the next grant it spends the dispatch, and the whole of any flush
    that starts meanwhile: a flush starts at the release that retires the
    last segment, which the packet just computed holds until its compute
    has ended.  A flush after the last packet ends the run at least
    ``reuse_flush_cycles`` after the last compute.  Here too the dispatch
    overlaps the wait for a flush, so not ``D + F``.

    **Upper, both disciplines: XL + C + XS + D + F.**  Walk back from the
    run's last event along its causes.  A compute's end leads to its
    start, the start to the later of the read's completion and the cycle
    the compute stage had the packet; a grant to its request or the
    release or flush end (``reuse_flush_cycles`` after a release) that
    freed a segment; a request to the previous grant or the compute stage
    freeing a stream slot, plus a dispatch.  A transfer's completion is
    at most ``xfer`` after the later of its issue and the latest bus end
    of any channel then — with at most ``n_channels`` stripes, each
    stripe finds a channel the transfer has not touched, which is free by
    then — and such a bus end is at most a burst after the same for the
    transfer that made it, issued earlier.  Every step back costs at most
    one term of the sum: a compute, a dispatch, a flush, or a transfer's
    ``xfer``, each met once, since the walk only moves to earlier events
    and earlier-issued transfers.
    """
    hbm = platform.hbm
    channel = hbm.channels[0]  # every channel alike (``MemorySystemModel``)
    key = (min(config.hbm_stripe, hbm.n_channels),
           channel.bytes_per_cycle(platform.clock_hz), channel.access_latency_cycles)
    bus = loads = stores = 0
    for op_program in ops:
        body = op_program.packets
        terms = body.stream_terms.get(key)
        if terms is None:
            terms = body.stream_terms[key] = _stream_terms(body, *key)
        bus += terms[0]
        loads += terms[1]
        stores += terms[2]
    streaming = -(-bus // hbm.n_channels)
    dispatch = DISPATCH_CYCLES * len(ops)
    flush = 0 if config.memory_reuse else (
        n_packets // config.buffers.n_segments * config.buffers.reuse_flush_cycles)
    lower = max(streaming, compute) + flush
    if config.pipeline:
        lower = max(lower, dispatch)
        if ops:
            chain = (DISPATCH_CYCLES + _xfer(ops[0].packets[0].load_bytes, *key) + compute
                     + _xfer(ops[-1].packets[-1].store_bytes, *key))
            lower = max(lower, chain)
    else:
        lower = max(lower, loads + compute + max(dispatch, flush))
    return lower, loads + compute + stores + dispatch + flush


def _stream_terms(body: PacketBody, stripe: int, per_cycle: float,
                  latency: int) -> Tuple[int, int, int]:
    """``(Σ burst over every stripe, Σ xfer of the loads, Σ xfer of the
    stores)`` of one operator's packets (see :func:`_cycle_bracket`),
    over their distinct signatures."""
    bus = loads = stores = 0
    for (load, _, store, _, _), count in Counter(body.signatures).items():
        for n_bytes in (load, store):
            if n_bytes:
                split = stripe if n_bytes >= stripe else 1
                chunk = n_bytes // split
                bus += count * ((split - 1) * math.ceil(chunk / per_cycle)
                                + math.ceil((n_bytes - chunk * (split - 1)) / per_cycle))
        loads += count * _xfer(load, stripe, per_cycle, latency)
        stores += count * _xfer(store, stripe, per_cycle, latency)
    return bus, loads, stores


def _xfer(n_bytes: int, stripe: int, per_cycle: float, latency: int) -> int:
    """``xfer`` of one transfer of ``n_bytes`` (see :func:`_cycle_bracket`),
    0 for none."""
    if not n_bytes:
        return 0
    split = stripe if n_bytes >= stripe else 1
    return math.ceil((n_bytes - n_bytes // split * (split - 1)) / per_cycle) + latency


#: parent of the three stages' first keys (see the module docstring)
_ROOT = (-1,)

#: ``transfer(n_bytes, now, packet)``, returning the cycle it completes
_Transfer = Callable[[int, int, int], int]


@dataclass
class StepResult:
    """Outcome of simulating one decode-step program.

    ``engine_busy["mpe"|"sfu"]`` are cycles the engine computed; the
    compute stage is serial, so their sum is at most ``cycles`` (every
    run checks it, with the cycle bracket of :func:`_cycle_bracket`) and
    ``mpe_utilization`` is at most 1.
    ``engine_busy["load"|"store"]`` are *sums of in-flight intervals*
    (issue to completion, per transfer): a pipelined design keeps several
    transfers outstanding, so they overlap and the sum may exceed
    ``cycles``.
    ``packets_replayed`` counts the packets the simulator jumped over —
    whole periods of a repeated machine state, or stretches the previous
    run walked from the same state — instead of walking them; every
    other field is the same as if it had walked them.
    ``spans`` (traced runs only) are the run's intervals in event order,
    in cycles from its start, one ``accel:<engine>`` lane each; a cached
    result shares them with every step that reuses it.
    """

    cycles: int
    counters: RunCounters
    spans: Optional[Tuple[Span, ...]] = None
    engine_busy: Dict[str, int] = field(default_factory=dict)
    n_flushes: int = 0
    packets_replayed: int = 0

    @property
    def mpe_utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.engine_busy.get("mpe", 0) / self.cycles


class PipelineExecutor:
    """Times compiled programs on the accelerator micro-architecture.

    The executor keeps what its last untraced run saw at its checks (a
    :class:`_Trajectory`), for the next run on the same configuration and
    platform to follow; one run, replaced by each untraced run."""

    def __init__(self, config: AcceleratorConfig, platform: FpgaPlatform) -> None:
        self.config = config
        self.platform = platform
        self._reference: Tuple[Optional[Tuple], Optional[_Trajectory]] = (None, None)

    # ------------------------------------------------------------------
    def run(self, program: Program) -> StepResult:
        """Simulate one program and return its cycle count and counters."""
        counters = RunCounters()
        spans: Optional[List[Span]] = [] if self.config.trace_enabled else None
        hbm = MemorySystemModel(self.platform.hbm, self.platform.clock_hz)
        pool = BufferPool(self.config.buffers, reuse=self.config.memory_reuse)
        # The run reads its operators' bodies: their timing signatures,
        # totals, runs and transfer terms, each built once per body.
        ops = [op_program for op_program in program.ops if op_program.packets]
        bodies = [op_program.packets for op_program in ops]
        stream = _Stream([body.signatures for body in bodies])
        n_packets = stream.firsts[-1]
        (counters.int8_macs, counters.sfu_flops, counters.onchip_read_bytes,
         counters.dequant_flops, counters.quant_saved_bytes, counters.mpe_tiles,
         counters.sfu_ops, counters.hbm_read_bytes, counters.hbm_write_bytes,
         compute) = program.totals
        counters.instructions = n_packets
        counters.onchip_write_bytes = counters.onchip_read_bytes

        # A traced run lists every interval, so it never jumps.
        checks = _NO_CHECKS if spans is not None else _Checks(
            bodies, stream.firsts, self.config.buffers.n_segments)
        busy = {"load": 0, "mpe": 0, "sfu": 0, "store": 0}
        machine, reference = self._reference
        if spans is not None or machine != (self.config, self.platform):
            reference = None
        periods = _Periods(stream, checks, hbm, pool, counters, busy, reference)
        discipline = self._run_pipelined if self.config.pipeline else self._run_sequential
        # A traced run names its intervals after the packets' labels.
        labels = None if spans is None else program.labels()
        if labels is not None and len(labels) != n_packets:
            raise ValueError(f"{len(labels)} labels for {n_packets} packets")
        transfer = _transfer(hbm, min(self.config.hbm_stripe, self.platform.hbm.n_channels),
                             spans, labels)
        end = discipline(stream.signatures, transfer, pool, counters, busy, spans, labels,
                         periods)
        counters.dma_transfers = hbm.total_transactions
        cycles = max([end] + [flush_end[0] for flush_end, _ in pool.flushes])
        lower, upper = _cycle_bracket(ops, n_packets, compute, self.config, self.platform)
        if not lower <= cycles <= upper:
            raise RuntimeError(f"simulated {cycles} cycles outside the analytical "
                               f"bracket [{lower}, {upper}]")
        if busy["mpe"] + busy["sfu"] > cycles:
            raise RuntimeError(f"compute busy {busy['mpe']} (MPE) + {busy['sfu']} (SFU) "
                               f"cycles exceeds the run's {cycles}")
        if spans is None:
            self._reference = (self.config, self.platform), periods.trajectory
        return StepResult(
            cycles=cycles,
            counters=counters,
            spans=None if spans is None else tuple(spans),
            engine_busy=busy,
            n_flushes=pool.n_flushes,
            packets_replayed=periods.replayed,
        )

    # ------------------------------------------------------------------
    # Sequential (unoptimized) discipline
    # ------------------------------------------------------------------
    def _run_sequential(self, steps: Sequence[Tuple], transfer: "_Transfer",
                        pool: BufferPool, counters: RunCounters, busy: Dict[str, int],
                        spans: Optional[List[Span]], labels: Optional[List[str]],
                        periods: "_Periods") -> int:
        """Walks the packets' timing signatures, ``steps``; returns the
        cycle of the last compute end or store completion."""
        now = last_store = flushes_traced = 0
        k, due = 0, periods.due
        while k < len(steps):
            if k == due:
                # The next acquire applies every release before ``now``
                # anyway; applied here, the state holds no past.
                pool.settle((now,))
                jump = periods.observe(k, k - 1, now, (), [], last_store)
                if jump is not None:
                    k, now, last_store = jump.k, jump.floor, jump.last_store
                due = periods.next_check(k)
                if jump is not None:
                    continue  # the jump may have reached the end
            load, compute, store, mpe, opens = steps[k]
            if opens:
                now += DISPATCH_CYCLES
            # One requester: a release on the cycle of the request is as
            # good as one before it, so keys are bare ``(cycle,)`` tuples.
            granted = pool.acquire((now,))[0]
            counters.buffer_stall_cycles += granted - now
            now = granted
            if spans is not None:
                # A flush empties the pool, so it has ended by the time the
                # next segment is granted.
                flushes_traced = _trace_flushes(spans, pool, flushes_traced)
            # read: the sequential controller has a single outstanding
            # request, so it is exposed to the full access latency of
            # every transfer.
            if load:
                loaded = transfer(load, now, k)
                busy["load"] += loaded - now
                now = loaded
            # compute
            engine = "mpe" if mpe else "sfu"
            start = now
            now += compute
            busy[engine] += compute
            if spans is not None:
                spans.append(_span(engine, labels[k], start, now))
            # write back: stores are posted (the controller does not wait
            # for the write acknowledgement), but the staging segment is
            # only recycled once the data has left it.
            if store:
                stored = transfer(store, now, k)
                busy["store"] += stored - now
                last_store = max(last_store, stored)
                pool.release((stored,))
            else:
                pool.release((now,))
            k += 1
        pool.settle()
        if spans is not None:
            _trace_flushes(spans, pool, flushes_traced)
        return max(now, last_store)

    # ------------------------------------------------------------------
    # Pipelined (data-stream parallel) discipline
    # ------------------------------------------------------------------
    def _run_pipelined(self, steps: Sequence[Tuple], transfer: "_Transfer",
                       pool: BufferPool, counters: RunCounters, busy: Dict[str, int],
                       spans: Optional[List[Span]], labels: Optional[List[str]],
                       periods: "_Periods") -> int:
        """Walks the packets' timing signatures, ``steps``; returns the
        cycle of the last compute end or store completion."""
        n_packets = len(steps)
        due = periods.due
        # Keys, per packet j — granted[j]: the loader holds j's segment and
        # issues its read; loaded[j]: that read completes; asks[j]: the
        # compute stage asks the ``loaded`` stream for j.
        granted: List[Tuple] = []
        loaded: List[Tuple] = []
        asks: List[Tuple] = [(0, _ROOT, 1)]
        tags: List[Tuple] = []   # tracing: the key of each span recorded

        def tag(key: Tuple) -> None:
            """Every span recorded since the last call was recorded at ``key``."""
            tags.extend([key] * (len(spans) - len(tags)))

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
                if steps[i][4]:
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
                computed = (start + steps[k][1], cause, 0)
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
                load = steps[i][0]
                arrives = grant[0]
                if load:
                    arrives = transfer(load, grant[0], i)
                    if spans is not None:
                        tag(grant)
                granted.append(grant)
                loaded.append((arrives, grant, 0))
                i += 1
                request = grant = None
                continue
            load, compute, store, mpe, _ = steps[k]
            if load:
                busy["load"] += start - granted[k][0]
            engine = "mpe" if mpe else "sfu"
            busy[engine] += compute
            if spans is not None:
                spans.append(_span(engine, labels[k], start, computed[0]))
                tag(computed)
            # Write-back is fire-and-forget: the store is issued and the
            # buffer segment is released when the memory system confirms
            # it, so small result slices never stall the compute stage.
            if store:
                stored = transfer(store, computed[0], k)
                busy["store"] += stored - computed[0]
                last_store = max(last_store, stored)
                pool.release((stored, turn, 0))
                if spans is not None:
                    tag(turn)
            else:
                pool.release(turn)
            asks.append((computed[0], computed, 1))
            k += 1
            computed, turn = None, NEVER
            if k == due:
                # Live: the loader's last grant (its next request starts
                # there) and the packets in flight, the asks the loader and
                # the compute stage still wait on, and the pending acquire.
                lo = min(k, i - 1)
                live = granted[lo:i] + loaded[k:i] + asks[max(i - 3, 0):k + 1]
                live += [key for key in (request, grant) if key is not None]
                floor = min(key[0] for key in live)
                if pool.pending:
                    floor = min(floor, pool.pending[0][0][0])
                jump = periods.observe(k, i, floor, (i - k, request is None, grant is None),
                                       live, last_store)
                if jump is not None:
                    # The live keys there, in the order handed over above.
                    ahead, no_request, no_grant = jump.flags
                    k, last_store = jump.k, jump.last_store
                    i = k + ahead
                    keys = iter(jump.live)
                    for known, first, end in ((granted, min(k, i - 1), i), (loaded, k, i),
                                              (asks, max(i - 3, 0), k + 1)):
                        known.extend([None] * (end - len(known)))
                        known[first:end] = [next(keys) for _ in range(first, end)]
                    request = None if no_request else next(keys)
                    grant = None if no_grant else next(keys)
                due = periods.next_check(k)
        pool.settle()
        if spans is not None:
            # Spans were recorded in the order of the merge, which is the
            # queue's only for reads against writes; the keys restore it
            # for the computes and flushes recorded between them.
            _trace_flushes(spans, pool, 0)
            tags.extend(flush_end for flush_end, _ in pool.flushes)
            spans[:] = [spans[j] for j in sorted(range(len(tags)), key=tags.__getitem__)]
        return max(asks[-1][0], last_store)


def _transfer(model: MemorySystemModel, stripe: int, spans: Optional[List[Span]],
              labels: Optional[List[str]]) -> _Transfer:
    """``transfer(n_bytes, now, packet)``: ``n_bytes`` (at least one) issued
    at cycle ``now`` as one :meth:`~MemorySystemModel.issue_split` call
    over ``stripe`` channels — over one when there are fewer bytes than
    stripes, as every stripe but the last would be empty — returning the
    cycle the slowest stripe completes.  A traced run records each stripe
    as ``hbm:<channel>``, labelled ``label[i]`` after the packet's
    label; ``label`` alone when
    ``stripe`` is 1, and ``label[stripe - 1]`` for the lone stripe of a
    short transfer.  Whether the time up to completion is a memory stall
    is the caller's decision: a sequential controller waits for it, a
    pipelined one overlaps it with compute."""
    issue = model.issue_split

    def transfer(n_bytes: int, now: int, packet: int) -> int:
        split = stripe if n_bytes >= stripe else 1
        done, picks = issue(n_bytes, split, now)
        if spans is not None:
            label = labels[packet]
            if stripe == 1:
                names = [label]
            elif split == 1:
                names = [f"{label}[{stripe - 1}]"]
            else:
                names = [f"{label}[{i}]" for i in range(stripe)]
            for (end, channel), name in zip(model.stripes(picks), names):
                spans.append(_span(f"hbm:{channel}", name, now, end))
        return done

    return transfer


class _Checks:
    """The packet boundaries at which a run may jump, found as the run
    reaches them: inside a run of one signature every ``n_segments``-th
    packet (a no-reuse pool's flush cycle) while two such strides remain
    — read off the body's :attr:`~PacketBody.runs` — and the first
    packet of an operator whose sequence of operator signatures repeats
    for one more full period from there.  A run asks only about the
    operators it walks into, not the ones it jumps over."""

    def __init__(self, bodies: Sequence[PacketBody], firsts: Sequence[int],
                 n_segments: int) -> None:
        self.bodies = bodies
        self.firsts = firsts
        self.n_segments = n_segments
        self.signatures = [body.signature for body in bodies]

    def after(self, k: int) -> int:
        """The first check after packet boundary ``k`` (-1 if none is left)."""
        bodies, firsts, step = self.bodies, self.firsts, self.n_segments
        o = max(bisect_right(firsts, k) - 1, 0)
        while o < len(bodies):
            first = firsts[o]
            if first > k and self._repeats(o):
                return first
            for start, length in bodies[o].runs:
                start += first
                point = start if start > k else k + step - (k - start) % step
                if point <= start + length - 2 * step:
                    return point
            o += 1
        return -1

    def _repeats(self, o: int) -> bool:
        """Whether the operator signatures from ``o`` repeat for one more
        full period, to the next operator of ``o``'s signature."""
        signatures = self.signatures
        try:
            later = signatures.index(signatures[o], o + 1)
        except ValueError:
            return False
        return signatures[o:later] == signatures[later:2 * later - o]


#: What a traced run checks: nothing.
_NO_CHECKS = _Checks((), (0,), 1)


class _Stream:
    """A run's packets as the bodies it shares: ``parts`` holds each
    non-empty operator's :attr:`~PacketBody.signatures` (one tuple per
    body, so two runs sharing a body share its tuple), ``signatures``
    is them end to end — all the walk reads of the packets — and
    ``firsts`` where each operator's packets begin, then their number."""

    __slots__ = ("parts", "firsts", "signatures")

    def __init__(self, parts: Sequence[Tuple]) -> None:
        self.parts = parts
        self.firsts = list(accumulate(map(len, parts), initial=0))
        self.signatures = list(chain.from_iterable(parts))


class _Jump(NamedTuple):
    """Where a jump lands: the packet boundary, the flags and live keys
    there (in the order the discipline handed them over), the floor and
    ``last_store`` (at least the floor: an earlier store decides
    nothing)."""

    k: int
    flags: Tuple
    live: List[Tuple]
    floor: int
    last_store: int


class _Periods:
    """Finds a machine state seen before, shifted in time, and jumps what
    followed it (see ``docs/ARCHITECTURE.md``, "Periodic fast-forward"
    and "Replay across runs").

    At a check a discipline hands over its *live* keys — those its future
    reads — and the *floor*, a cycle no later event precedes.  A cheap
    fingerprint (relative cycles, counts, the pool's and the HBM model's
    states) is looked up first; only when a jump has room are the
    canonical forms built: every live key and every ancestor of one at or
    after the floor, in key order, each as ``(cycle - floor, index,
    position of its parent or -1 for an older one)``, with the equal
    neighbours marked.  A comparison of two keys descends only through
    ancestors that tie on their cycle, and every later key's cycle is at
    or after the floor, so no comparison the future makes reaches an
    older ancestor except through a pair whose order the form records.

    **Why a jump is exact.**  Every cycle the recurrence derives is a
    ``max`` of earlier cycles plus a constant read off a packet's
    signature, and every choice it makes (a grant, a channel, the order
    of a read and a write) is a comparison of keys or of cycles.  Add Δ
    to every cycle of a state: each ``max`` and ``+`` gives its old value
    plus Δ and each comparison its old answer.  So two states with equal
    fingerprints and forms, ``delta`` cycles apart, followed by equal
    packets, evolve alike but for ``delta`` — every later state, check
    and flush shifted, every counter, busy cycle and HBM total growing by
    the same amounts — for as long as the packets stay equal.  The state
    at a check depends on the packets up to its *reach* (the loader's
    look-ahead), so the packets must agree that far.  Two sources:

    * **This run** (``_repeat``): the latest earlier check ``p`` packets
      back with the fingerprint.  The packets must repeat with period
      ``p`` for ``m ≥ 1`` periods past the reach; the run jumps ``m``
      periods, ``m·Δ`` cycles, and every total grows ``m`` times as
      much as over the period.
    * **The previous untraced run** (``_follow``, tried first): the
      executor's reference :class:`_Trajectory`, its check with the
      fingerprint nearest the same packet boundary.  Its packets and
      this run's, from the two checks on, are compared body by body,
      then in doubling and bisected slices (:func:`_agree`); the run
      jumps to the reference's farthest later check whose reach lies
      inside the agreeing stretch, shifted by the two floors'
      difference, with every total grown by what the reference's grew
      between the two checks.  Only then are the forms compared, once
      per jump.

    A jump lands on a rebuilt state (:meth:`_jump`): the target's
    canonical nodes at the new floor (:func:`_rebuild`), the pool's counts
    and pending releases and the HBM order (which its fingerprint holds)
    taken up there, and the flushes started on the way copied, shifted.
    """

    def __init__(self, stream: _Stream, checks: _Checks, model: MemorySystemModel,
                 pool: BufferPool, counters: RunCounters, busy: Dict[str, int],
                 reference: Optional["_Trajectory"]) -> None:
        self.stream = stream
        self.checks = checks
        self.model = model
        self.pool = pool
        self.counters = counters
        self.busy = busy
        self.reference = reference
        self.trajectory = _Trajectory(stream, pool.flushes)
        self.replayed = 0
        self.due = self.next_check(-1)

    def next_check(self, k: int) -> int:
        """The first check after packet boundary ``k`` (-1 if none is left)."""
        return self.checks.after(k)

    def observe(self, k: int, reach: int, floor: int, flags: Tuple, live: List[Tuple],
                last_store: int) -> Optional[_Jump]:
        """The state at boundary ``k`` (``k`` packets done; it depends on
        the packets up to ``reach``).  On a jump, the counters, busy
        cycles, pool and HBM model are already advanced and the answer is
        where it lands."""
        pool, model = self.pool, self.model
        fingerprint = (flags, max(last_store - floor, 0),
                       tuple([key[0] - floor for key in live]),
                       pool.state(floor), model.arbitration_state(floor))
        # Keys are immutable: kept, they still give the canonical form of
        # this state when a later check meets its fingerprint.
        current = _Record(k, reach, floor, fingerprint, live, list(pool.pending),
                          self._tally(), pool.n_flushes)
        earlier = self.trajectory.add(current)
        jump = self._follow(current)
        if jump is None and earlier is not None:
            jump = self._repeat(earlier, current)
        return jump

    def _follow(self, current: "_Record") -> Optional[_Jump]:
        """Jump along the reference run, if it passed this state with the
        same packets ahead and checked again before they differ."""
        reference = self.reference
        at = None if reference is None else reference.nearest(current.fingerprint, current.k)
        if at is None:
            return None
        start = reference.records[at]
        agree = _agree(self.stream, current.k, reference.stream, start.k)
        end = bisect_left(reference.records, start.k + agree, at + 1,
                          key=attrgetter("reach")) - 1
        if end <= at or start.form != current.form:
            return None
        target = reference.records[end]
        delta = current.floor - start.floor
        flushes = [((flush_end[0] + delta,), begin + delta)
                   for flush_end, begin in reference.flushes[start.n_flushes:target.n_flushes]]
        return self._jump(current.k, target, target.k - start.k, delta,
                          _growth(start.tally, target.tally, 1), flushes)

    def _repeat(self, record: "_Record", current: "_Record") -> Optional[_Jump]:
        """Jump whole periods of this run's state recurring since ``record``."""
        # Whole periods for which every packet the state can reach repeats
        # the one ``period`` before it — checked before the (dearer)
        # canonical forms, as most recurrences have no room to jump.
        period = current.k - record.k
        agree = _agree(self.stream, current.k, self.stream, record.k)
        repeats = (current.k + agree - 1 - current.reach) // period
        if repeats < 1 or record.form != current.form:
            return None
        delta = current.floor - record.floor
        started = self.pool.flushes[record.n_flushes:]
        flushes = [((flush_end[0] + m * delta,), begin + m * delta)
                   for m in range(1, repeats + 1) for flush_end, begin in started]
        return self._jump(current.k, current, repeats * period, repeats * delta,
                          _growth(record.tally, current.tally, repeats), flushes)

    def _jump(self, k: int, target: "_Record", packets: int, delta: int,
              growth: List[int], flushes: List[Tuple[Tuple, int]]) -> _Jump:
        """From boundary ``k`` to ``k + packets``, into ``target``'s state
        ``delta`` cycles later, every total grown by ``growth``."""
        shape, live_at, pending_at = target.form
        floor = target.floor + delta
        nodes = _rebuild(shape, floor)
        flags, clamped, _, (free, retired, _), arbitration = target.fingerprint
        counters, busy = self.counters, self.busy
        counters.buffer_stall_cycles += growth[0]
        counters.memory_stall_cycles += growth[1]
        for name, grown in zip(list(busy), growth[2:]):
            busy[name] += grown
        pending = [(nodes[j], ends) for j, ends in pending_at]
        self.pool.fast_forward(free, retired, pending, flushes)
        self.model.fast_forward(arbitration, floor, growth[2 + len(busy):])
        self.replayed += packets
        live = [nodes[j] for j in live_at]
        # The landing is a state this run was in: a later run can land on
        # it too.  Its keys were rebuilt from the target's form, so that
        # is its form.
        self.trajectory.add(_Record(k + packets, target.reach - target.k + k + packets, floor,
                                    target.fingerprint, live, pending, self._tally(),
                                    self.pool.n_flushes, target.form))
        return _Jump(k + packets, flags, live, floor, floor + clamped)

    def _tally(self) -> Tuple[int, ...]:
        """The running totals a jump grows: the two counters the walk
        moves (the others are set from the packets before it), the busy
        cycles and the HBM model's totals."""
        counters = self.counters
        return (counters.buffer_stall_cycles, counters.memory_stall_cycles,
                *self.busy.values(), *self.model.totals())


def _growth(before: Tuple[int, ...], after: Tuple[int, ...], times: int) -> List[int]:
    """``times`` the growth of every total from ``before`` to ``after``."""
    return [times * (b - a) for a, b in zip(before, after)]


def _agree(a: _Stream, i: int, b: _Stream, j: int) -> int:
    """The first ``d >= 0`` with packet ``i + d`` of ``a`` and ``j + d`` of
    ``b`` timed differently, or where either ends.  Where the two sit at
    one offset of their parts — at the start of both, or inside one body
    — the rest of that body agrees without a look, and whole parts are
    compared next (one body, one object: ``is`` decides); packets are
    compared from the first part that differs.  ``a`` and ``b`` may be
    one stream (a period's repeat: ``j = i - period``)."""
    x = bisect_right(a.firsts, i) - 1
    y = bisect_right(b.firsts, j) - 1
    at = i - a.firsts[x]
    if at == j - b.firsts[y] and (at == 0 or a.parts[x] is b.parts[y]):
        if at:
            x, y = x + 1, y + 1
        parts = _common(a.parts, x, b.parts, y)
        x, y = a.firsts[x + parts], b.firsts[y + parts]
        return x - i + _common(a.signatures, x, b.signatures, y)
    return _common(a.signatures, i, b.signatures, j)


def _common(a: Sequence, i: int, b: Sequence, j: int) -> int:
    """The first ``d >= 0`` with ``a[i + d] != b[j + d]``, or where either
    ends: slices of doubling length compared whole, then the first that
    differs bisected."""
    n = min(len(a) - i, len(b) - j)
    end, step = 0, 1
    while end < n:
        stop = min(end + step, n)
        if a[i + end:i + stop] != b[j + end:j + stop]:
            while stop - end > 1:
                middle = (end + stop) // 2
                if a[i + end:i + middle] == b[j + end:j + middle]:
                    end = middle
                else:
                    stop = middle
            return end
        end, step = stop, 2 * step
    return n


@dataclass(slots=True)
class _Record:
    """A machine state :class:`_Periods` saw, and the running totals then."""

    k: int
    reach: int
    floor: int
    fingerprint: Tuple
    live: List[Tuple]
    pending: List[Tuple[Tuple, bool]]
    tally: Tuple[int, ...]
    n_flushes: int
    _form: Optional[Tuple] = None

    @property
    def form(self) -> Tuple:
        """The canonical form, built once: ``(nodes' shapes, the live
        keys' positions, the pending releases' (position, ends a flush),
        sorted)``."""
        if self._form is None:
            self._form = self._canonical()
        return self._form

    def _canonical(self) -> Tuple:
        floor, found = self.floor, {}
        for key in self.live + [key for key, _ in self.pending]:
            while key[0] >= floor and id(key) not in found:
                found[id(key)] = key
                if len(key) == 1:
                    break
                key = key[1]
        nodes = sorted(found.values())
        at = {id(node): j for j, node in enumerate(nodes)}
        shape = [(node[0] - floor,) if len(node) == 1 else
                 (node[0] - floor, node[2], at.get(id(node[1]), -1),
                  j > 0 and node == nodes[j - 1])
                 for j, node in enumerate(nodes)]
        return (tuple(shape), tuple([at[id(key)] for key in self.live]),
                tuple(sorted([(at[id(key)], ends) for key, ends in self.pending])))


def _rebuild(shape: Sequence[Tuple], floor: int) -> List[Tuple]:
    """Keys ordered exactly as the nodes of the canonical form ``shape``,
    at ``floor``.  A recorded parent is the key rebuilt for it; an older
    one becomes ``(floor - 1, _ROOT, rank)``, ``rank`` counting the
    distinct nodes so far.  Such a parent sorts before every rebuilt node
    and decides only between two nodes on one cycle, which the ranks order
    as the form does, or keep equal — so the rebuilt keys, and all later
    ones, compare as the originals' would, and hold none of their
    ancestors."""
    nodes: List[Tuple] = []
    rank = 0
    for row in shape:
        if len(row) == 1:
            nodes.append((row[0] + floor,))
            continue
        cycle, index, parent, equal = row
        rank += not equal
        nodes.append((cycle + floor, nodes[parent] if parent >= 0 else (floor - 1, _ROOT, rank),
                      index))
    return nodes


@dataclass
class _Trajectory:
    """What an untraced run saw at its checks, in order, kept as the next
    run's reference: its packets (as the bodies' signatures), its pool's
    flushes, its records (their reaches never fall) and where each
    fingerprint was seen."""

    stream: _Stream
    flushes: List[Tuple[Tuple, int]]
    records: List[_Record] = field(default_factory=list)
    index: Dict[Tuple, List[int]] = field(default_factory=dict)

    def add(self, record: _Record) -> Optional[_Record]:
        """Append ``record``; returns the latest earlier one with its
        fingerprint, if any."""
        seen = self.index.setdefault(record.fingerprint, [])
        earlier = self.records[seen[-1]] if seen else None
        seen.append(len(self.records))
        self.records.append(record)
        return earlier

    def nearest(self, fingerprint: Tuple, k: int) -> Optional[int]:
        """The position of the record with ``fingerprint`` whose boundary
        is nearest ``k``, or None."""
        seen = self.index.get(fingerprint)
        if not seen:
            return None
        return min(seen, key=lambda at: abs(self.records[at].k - k))


def _trace_flushes(spans: List[Span], pool: BufferPool, already: int) -> int:
    """Record the pool's flushes from the ``already``-th on; returns their count."""
    for flush_end, start in pool.flushes[already:]:
        spans.append(_span("buffer-pool", "flush", start, flush_end[0]))
    return len(pool.flushes)


def _span(engine: str, label: str, start: int, end: int) -> Span:
    """One interval on ``engine``'s lane, in cycles."""
    return Span(label, start, end, attrs=_lane(engine), clock=CYCLES)


@lru_cache(maxsize=None)
def _lane(engine: str) -> Mapping[str, str]:
    """The attributes of every span on ``engine``'s lane, shared read-only."""
    return MappingProxyType({"lane": f"accel:{engine}"})
