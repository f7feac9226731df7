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
decoder layers) — to compare the state with the ones it has seen.  On a
match ``p`` packets back it jumps whole periods at once: the live keys
are rebuilt ``m·Δ`` later, and every counter, busy cycle, flush and HBM
total grows by ``m`` times what it grew in the period (see
:class:`_Periods`).  The result is the one walking every packet gives;
``StepResult.packets_replayed`` counts what was jumped.  A traced run
lists every event and never jumps.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..fpga.hbm import MemorySystemModel
from ..fpga.u280 import FpgaPlatform
from ..graph.ops import ComputeUnit
from ..sim.stats import RunCounters
from ..sim.trace import Trace
from .config import AcceleratorConfig
from .instructions import OpProgram, Program, TilePacket
from .memory_manager import NEVER, BufferPool

__all__ = ["StepResult", "PipelineExecutor", "DISPATCH_CYCLES"]

#: control cycles charged once per operator program (instruction dispatch)
DISPATCH_CYCLES = 24

#: parent of the three stages' first keys (see the module docstring)
_ROOT = (-1,)

#: ``transfer(n_bytes, now, label)``, returning the cycle it completes
_Transfer = Callable[[int, int, str], int]


@dataclass
class StepResult:
    """Outcome of simulating one decode-step program.

    ``engine_busy["mpe"|"sfu"]`` are cycles the engine computed.
    ``engine_busy["load"|"store"]`` are *sums of in-flight intervals*
    (issue to completion, per transfer): a pipelined design keeps several
    transfers outstanding, so they overlap and the sum may exceed
    ``cycles`` — :attr:`load_utilization` clamps the ratio to 1.
    ``packets_replayed`` counts the packets the simulator jumped over as
    whole periods of a repeated machine state instead of walking them;
    every other field is the same as if it had walked them.
    """

    program_name: str
    cycles: int
    counters: RunCounters
    trace: Optional[Trace] = None
    engine_busy: Dict[str, int] = field(default_factory=dict)
    n_flushes: int = 0
    packets_replayed: int = 0

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
        hbm = MemorySystemModel(self.platform.hbm, self.platform.clock_hz)
        pool = BufferPool(self.config.buffers, reuse=self.config.memory_reuse)
        # The packets in execution order, which of them open an operator
        # (and pay its dispatch), their timing signatures, and the counters
        # that depend on the packets alone — per operator, computed once.
        ops = [op_program for op_program in program.ops if op_program.packets]
        packets: List[TilePacket] = []
        signatures: List[Tuple] = []
        firsts: List[int] = []
        totals = [0] * 9
        for op_program in ops:
            firsts.append(len(packets))
            packets.extend(op_program.packets)
            signatures.extend(op_program.signatures)
            totals = [a + b for a, b in zip(totals, op_program.counter_totals)]
        (counters.int8_macs, counters.sfu_flops, counters.onchip_read_bytes,
         counters.dequant_flops, counters.quant_saved_bytes, counters.mpe_tiles,
         counters.sfu_ops, counters.hbm_read_bytes, counters.hbm_write_bytes) = totals
        counters.instructions = len(packets)
        counters.onchip_write_bytes = counters.onchip_read_bytes
        opens = [False] * len(packets)
        for first in firsts:
            opens[first] = True

        # A traced run lists every event, so it never jumps.
        checks = [] if trace is not None else _check_points(
            ops, firsts, self.config.buffers.n_segments)
        busy = {"load": 0, "mpe": 0, "sfu": 0, "store": 0}
        periods = _Periods(signatures, checks, hbm, pool, counters, busy)
        discipline = self._run_pipelined if self.config.pipeline else self._run_sequential
        transfer = _transfer(hbm, min(self.config.hbm_stripe, self.platform.hbm.n_channels),
                             trace)
        end = discipline(packets, opens, transfer, pool, counters, busy, trace, periods)
        counters.dma_transfers = hbm.total_transactions
        return StepResult(
            program_name=program.name,
            cycles=max([end] + [flush_end[0] for flush_end, _ in pool.flushes]),
            counters=counters,
            trace=trace,
            engine_busy=busy,
            n_flushes=pool.n_flushes,
            packets_replayed=periods.replayed,
        )

    # ------------------------------------------------------------------
    # Sequential (unoptimized) discipline
    # ------------------------------------------------------------------
    def _run_sequential(self, packets: Sequence[TilePacket], opens: List[bool],
                        transfer: "_Transfer", pool: BufferPool, counters: RunCounters,
                        busy: Dict[str, int], trace: Optional[Trace],
                        periods: "_Periods") -> int:
        """Returns the cycle of the last compute end or store completion."""
        now = last_store = flushes_traced = 0
        k, due = 0, periods.due
        while k < len(packets):
            if k == due:
                # The next acquire applies every release before ``now``
                # anyway; applied here, the state holds no past.
                pool.settle((now,))
                jump = periods.observe(k, k - 1, now, (), [], last_store)
                if jump is not None:
                    replayed, shift, _ = jump
                    k, now, last_store = k + replayed, now + shift, last_store + shift
                due = periods.next_check(k)
                if jump is not None:
                    continue  # the jump may have reached the end
            packet, opens_operator = packets[k], opens[k]
            k += 1
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
                loaded = transfer(packet.load_bytes, now, packet.label)
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
                stored = transfer(packet.store_bytes, now, packet.label)
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
                       transfer: "_Transfer", pool: BufferPool, counters: RunCounters,
                       busy: Dict[str, int], trace: Optional[Trace],
                       periods: "_Periods") -> int:
        """Returns the cycle of the last compute end or store completion."""
        n_packets = len(packets)
        due = periods.due
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
                    arrives = transfer(packet.load_bytes, grant[0], packet.label)
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
                stored = transfer(packet.store_bytes, computed[0], packet.label)
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
                    replayed, shift, fresh = jump
                    granted.extend([None] * replayed)
                    loaded.extend([None] * replayed)
                    asks.extend([None] * replayed)
                    for keys, first, end in ((granted, lo, i), (loaded, k, i),
                                             (asks, max(i - 3, 0), k + 1)):
                        for j in reversed(range(first, end)):  # may overlap
                            keys[j + replayed] = fresh[id(keys[j])]
                    request = None if request is None else fresh[id(request)]
                    grant = None if grant is None else fresh[id(grant)]
                    i, k, last_store = i + replayed, k + replayed, last_store + shift
                due = periods.next_check(k)
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


def _transfer(model: MemorySystemModel, stripe: int, trace: Optional[Trace]) -> _Transfer:
    """``transfer(n_bytes, now, label)``: ``n_bytes`` (at least one) issued
    at cycle ``now`` as one :meth:`~MemorySystemModel.issue_split` call
    over ``stripe`` channels — over one when there are fewer bytes than
    stripes, as every stripe but the last would be empty — returning the
    cycle the slowest stripe completes.  A traced run records each stripe
    as ``hbm:<channel>``, labelled ``label[i]``; ``label`` alone when
    ``stripe`` is 1, and ``label[stripe - 1]`` for the lone stripe of a
    short transfer.  Whether the time up to completion is a memory stall
    is the caller's decision: a sequential controller waits for it, a
    pipelined one overlaps it with compute."""
    issue = model.issue_split

    def transfer(n_bytes: int, now: int, label: str) -> int:
        split = stripe if n_bytes >= stripe else 1
        done, picks = issue(n_bytes, split, now)
        if trace is not None:
            if stripe == 1:
                labels = [label]
            elif split == 1:
                labels = [f"{label}[{stripe - 1}]"]
            else:
                labels = [f"{label}[{i}]" for i in range(stripe)]
            for (end, channel), name in zip(model.stripes(picks), labels):
                trace.record(f"hbm:{channel}", name, now, end, category="transfer")
        return done

    return transfer


def _check_points(ops: Sequence[OpProgram], firsts: Sequence[int],
                  n_segments: int) -> List[int]:
    """The packet boundaries at which a jump is possible, in order: inside
    a run of one signature every ``n_segments``-th packet (a no-reuse
    pool's flush cycle) while two such strides remain, and the first
    packet of an operator whose sequence of operator signatures repeats
    for one more full period from there."""
    points = set()
    for first, op_program in zip(firsts, ops):
        for start, length in op_program.runs:
            start += first
            points.update(range(start, start + length - 2 * n_segments + 1, n_segments))
    signatures = [op_program.signature for op_program in ops]
    following: Dict[int, int] = {}
    for o in range(len(ops) - 1, -1, -1):
        later = following.get(signatures[o])
        following[signatures[o]] = o
        if later is not None and signatures[o:later] == signatures[later:2 * later - o]:
            points.add(firsts[o])
    return sorted(points)


class _Periods:
    """Finds a machine state that recurs, shifted in time, and jumps whole
    periods of it (see ``docs/ARCHITECTURE.md``, "Periodic fast-forward").

    At a check a discipline hands over its *live* keys — those its future
    reads — and the *floor*, a cycle no later event precedes.  A cheap
    fingerprint (relative cycles, counts, the pool's and the HBM model's
    states) is looked up first; only on a hit with room for a whole period
    more are the canonical forms built: every live key and every ancestor
    of one at or after the floor, in key order, each as ``(cycle - floor,
    index, position of its parent or -1 for an older one)``, with the
    equal neighbours marked.  A comparison of two keys descends only
    through ancestors that tie on their cycle, and every later key's cycle
    is at or after the floor, so no comparison the future makes reaches an
    older ancestor except through a pair whose order the form records.
    Equal forms ``p`` packets and ``delta`` cycles apart therefore have
    futures equal but for ``delta`` for as long as the packets stay
    ``p``-periodic.
    """

    def __init__(self, signatures: List[Tuple], checks: List[int], model: MemorySystemModel,
                 pool: BufferPool, counters: RunCounters, busy: Dict[str, int]) -> None:
        self.signatures = signatures
        self.checks = checks
        self.model = model
        self.pool = pool
        self.counters = counters
        self.busy = busy
        self.seen: Dict[Tuple, _Record] = {}  # the latest state per fingerprint
        self.replayed = 0
        self.due = self.next_check(-1)

    def next_check(self, k: int) -> int:
        """The first check after packet boundary ``k`` (-1 if none is left)."""
        at = bisect_right(self.checks, k)
        return self.checks[at] if at < len(self.checks) else -1

    def observe(self, k: int, reach: int, floor: int, flags: Tuple, live: List[Tuple],
                last_store: int) -> Optional[Tuple[int, int, Dict[int, Tuple]]]:
        """The state at boundary ``k`` (``k`` packets done; it depends on
        the packets up to ``reach``).  On a jump, the counters, busy
        cycles, pool and HBM model are already advanced and the answer is
        ``(packets jumped, cycles jumped, new key by id(old key))``."""
        pool, model = self.pool, self.model
        fingerprint = (flags, max(last_store - floor, 0),
                       tuple([key[0] - floor for key in live]),
                       pool.state(floor), model.arbitration_state(floor))
        record = self.seen.get(fingerprint)
        # Keys are immutable: kept, they still give the canonical form of
        # this state when a later one meets its fingerprint.
        current = _Record(k, floor, live, list(pool.pending),
                          list(vars(self.counters).values()), list(self.busy.values()),
                          model.totals(), pool.n_flushes)
        self.seen[fingerprint] = current
        if record is None:
            return None
        # Whole periods for which every packet the state can reach repeats
        # the one ``period`` before it — checked before the (dearer)
        # canonical forms, as most recurrences have no room to jump.
        period = k - record.k
        repeats = (_periodic_until(self.signatures, k, period) - 1 - reach) // period
        if repeats < 1 or record.canonical()[0] != current.canonical()[0]:
            return None
        delta = floor - record.floor
        shift = repeats * delta
        fresh: Dict[int, Tuple] = {}
        for node in current.canonical()[1]:  # a parent sorts before its children
            fresh[id(node)] = (node[0] + shift,) if len(node) == 1 else (
                node[0] + shift, fresh.get(id(node[1]), node[1]), node[2])
        counters = self.counters
        for name, before, now in zip(list(vars(counters)), record.counters,
                                     current.counters):
            setattr(counters, name, now + repeats * (now - before))
        for name, before, now in zip(list(self.busy), record.busy, current.busy):
            self.busy[name] = now + repeats * (now - before)
        model.fast_forward(shift, [repeats * (now - before)
                                   for before, now in zip(record.totals, current.totals)])
        pool.fast_forward(fresh, record.n_flushes, repeats, delta)
        self.replayed += repeats * period
        return repeats * period, shift, fresh


def _periodic_until(signatures: Sequence, start: int, period: int) -> int:
    """The first ``j >= start`` with ``signatures[j] != signatures[j -
    period]``, or ``len(signatures)``: slices of doubling length compared
    whole, then the first that differs bisected."""
    n, end, step = len(signatures), start, period
    while end < n:
        stop = min(end + step, n)
        if signatures[end:stop] != signatures[end - period:stop - period]:
            while stop - end > 1:
                middle = (end + stop) // 2
                if signatures[end:middle] == signatures[end - period:middle - period]:
                    end = middle
                else:
                    stop = middle
            return end
        end, step = stop, 2 * step
    return n


@dataclass
class _Record:
    """A machine state :class:`_Periods` saw, and the running totals then."""

    k: int
    floor: int
    live: List[Tuple]
    pending: List[Tuple[Tuple, bool]]
    counters: List[int]
    busy: List[int]
    totals: Tuple[int, ...]
    n_flushes: int
    _canonical: Optional[Tuple] = None

    def canonical(self) -> Tuple:
        """``(canonical form, its nodes in key order)``, built once."""
        if self._canonical is None:
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
            form = (tuple(shape), tuple([at[id(key)] for key in self.live]),
                    tuple(sorted([(at[id(key)], ends) for key, ends in self.pending])))
            self._canonical = form, nodes
        return self._canonical


def _trace_flushes(trace: Trace, pool: BufferPool, already: int) -> int:
    """Record the pool's flushes from the ``already``-th on; returns their count."""
    for flush_end, start in pool.flushes[already:]:
        trace.record("buffer-pool", "flush", start, flush_end[0], category="stall")
    return len(pool.flushes)
