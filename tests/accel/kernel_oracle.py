"""The discrete-event kernel the cycle simulator ran on until PR 21 — now
the *oracle* its replacement is compared against.

``repro.accel.pipeline.PipelineExecutor`` times a program with two plain
loops whose same-cycle order is spelled out as causal keys.  This module
keeps what those loops replaced, verbatim from ``src/`` at the parent
commit: the SimPy-style kernel (``sim/engine.py``), the bounded FIFO
(``sim/stream.py``), the event-driven buffer pool
(``accel/memory_manager.py``) and the two process-based executor bodies
(``accel/pipeline.py``).  It is a reference implementation, not
production code: :class:`KernelExecutor` has ``PipelineExecutor``'s
interface, and ``test_executor_matches_kernel.py`` requires the two to
agree on every cycle, counter and trace event.

:class:`MemoryPort` is the wrapper the executor issued its transfers
through until it called the HBM model directly (``sim/memory.py``): the
reference for per-transfer traffic counting — bytes and DMA transfers
added per call — against which the executor's counters, summed from the
packets and read off the model, are compared.  It is ``sim/memory.py``'s
body with two adaptations: its one-stripe branch issues
``issue_split(n, 1, now)``, as the model's ``issue`` is gone (so a
zero-byte transfer is refused; no process issues one), and what nothing
here calls — ``read``/``write``, channel steering, ``ideal_cycles``,
``reset`` — is left out.  :class:`_EventPort` wraps it: ``MemoryPort``
returns a completion cycle instead of an event, so the processes are
handed the ``Timeout`` the old port built itself.

:class:`Trace` is the recorder the executor wrote to before it recorded
cycle-clock :class:`~repro.obs.tracer.Span` objects (``sim/trace.py``),
with the category each interval was recorded under; :func:`trace_events`
puts the executor's spans in its terms, so the two compare with ``==``.
:class:`KernelExecutor` returns a :class:`KernelResult`, a
``StepResult`` carrying that trace.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.accel.instructions import Program, TilePacket
from repro.accel.pipeline import DISPATCH_CYCLES, StepResult
from repro.fpga.hbm import MemorySystemModel, MemorySystemSpec
from repro.fpga.u280 import FpgaPlatform
from repro.graph.ops import ComputeUnit
from repro.obs.timeline import _accel_category
from repro.obs.tracer import CYCLES, Span
from repro.sim.stats import RunCounters

__all__ = [
    "Event", "Timeout", "Process", "Simulator", "SimulationError", "Stream",
    "BufferPool", "BufferSegment", "MemoryPort", "KernelExecutor",
    "KernelResult", "Trace", "TraceEvent", "trace_events",
]


# ----------------------------------------------------------------------
# sim/trace.py
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceEvent:
    """One half-open interval ``[start, end)`` of activity on an engine."""

    engine: str
    label: str
    start: int
    end: int
    category: str = "work"

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(
                f"invalid trace interval [{self.start}, {self.end}) for {self.label!r}"
            )

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Trace:
    """An append-only list of :class:`TraceEvent`."""

    events: List[TraceEvent] = field(default_factory=list)
    enabled: bool = True

    def record(self, engine: str, label: str, start: int, end: int,
               category: str = "work") -> None:
        """Append one interval (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(engine=engine, label=label,
                                       start=start, end=end, category=category))

    def __len__(self) -> int:
        return len(self.events)


def trace_events(spans: Iterable[Span]) -> List[TraceEvent]:
    """The executor's cycle spans as this trace records them: the engine
    is the lane without its ``accel:`` prefix, and the category is the
    one the timeline export gives the lane."""
    events = []
    for span in spans:
        assert span.clock == CYCLES and span.request_id is None, span
        lane = span.attrs["lane"]
        events.append(TraceEvent(lane.removeprefix("accel:"), span.name, span.start,
                                 span.end, _accel_category(lane)))
    return events


# ----------------------------------------------------------------------
# sim/engine.py
# ----------------------------------------------------------------------
class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. negative delays)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, is *triggered* with an optional value via
    :meth:`succeed`, and then calls back every waiter.  Waiting on an
    already-triggered event resumes the waiter immediately (same cycle).
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, resuming all waiters at the current cycle."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        for callback in self._callbacks:
            self.sim._schedule(0, callback, self)
        self._callbacks.clear()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; fires now if already triggered."""
        if self.triggered:
            self.sim._schedule(0, callback, self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` cycles in the future."""

    def __init__(self, sim: "Simulator", delay: int) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim, name=f"timeout({delay})")
        self.delay = delay
        sim._schedule(delay, self._fire, self)

    def _fire(self, _event: Event) -> None:
        if not self.triggered:
            self.triggered = True
            self.value = None
            for callback in self._callbacks:
                callback(self)
            self._callbacks.clear()


class Process(Event):
    """A generator-based simulation process.

    The generator yields :class:`Event` objects; the process resumes when
    the yielded event triggers, receiving the event's value as the result
    of the ``yield`` expression.  The process itself is an event that
    triggers (with the generator's return value) when the generator
    finishes, so processes can wait on each other.
    """

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any],
                 name: str = "") -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        sim._schedule(0, self._resume, None)

    def _resume(self, event: Optional[Event]) -> None:
        value = event.value if isinstance(event, Event) else None
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        target.add_callback(self._resume)


class Simulator:
    """The event queue and simulated clock.

    Notes
    -----
    * Time is an integer cycle counter starting at 0.
    * Events scheduled at the same cycle run in FIFO order of scheduling,
      which keeps runs fully deterministic.
    """

    def __init__(self) -> None:
        self._now = 0
        self._queue: List[tuple[int, int, Callable[[Any], None], Any]] = []
        self._counter = itertools.count()
        self._processes: List[Process] = []

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self._now

    def _schedule(self, delay: int, callback: Callable[[Any], None], payload: Any) -> None:
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        heapq.heappush(self._queue, (self._now + delay, next(self._counter), callback, payload))

    # ------------------------------------------------------------------
    # Public construction API
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: int) -> Timeout:
        """Create an event that triggers ``delay`` cycles from now."""
        return Timeout(self, delay)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process from ``generator``."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """Event that triggers once every event in ``events`` has triggered."""
        events = list(events)
        done = self.event(name=name)
        if not events:
            done.succeed([])
            return done
        remaining = {"count": len(events)}
        values: List[Any] = [None] * len(events)

        def make_callback(index: int) -> Callable[[Event], None]:
            def callback(ev: Event) -> None:
                values[index] = ev.value
                remaining["count"] -= 1
                if remaining["count"] == 0 and not done.triggered:
                    done.succeed(values)
            return callback

        for i, ev in enumerate(events):
            ev.add_callback(make_callback(i))
        return done

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next scheduled callback; returns False when idle."""
        if not self._queue:
            return False
        time, _, callback, payload = heapq.heappop(self._queue)
        if time < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        self._now = time
        callback(payload)
        return True

    def run(self, until: Optional[int] = None, max_events: int = 50_000_000) -> int:
        """Run until the queue drains (or cycle ``until`` is reached).

        Returns the final simulation cycle.  ``max_events`` guards against
        accidental infinite event loops in model code.
        """
        processed = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self._now = until
                break
            self.step()
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; possible livelock in the model"
                )
        return self._now


# ----------------------------------------------------------------------
# sim/stream.py
# ----------------------------------------------------------------------
class Stream:
    """A bounded, order-preserving FIFO channel between processes."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "stream") -> None:
        if capacity <= 0:
            raise SimulationError("stream capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._pending_puts: Deque[Tuple[Event, Any]] = deque()
        self._pending_gets: Deque[Event] = deque()
        # statistics
        self.total_puts = 0
        self.total_gets = 0
        self.max_occupancy = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def occupancy(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    # ------------------------------------------------------------------
    def put(self, item: Any) -> Event:
        """Deposit ``item``; the returned event triggers when accepted."""
        event = self.sim.event(name=f"{self.name}.put")
        if not self.is_full:
            self._accept(item)
            event.succeed(item)
        else:
            self._pending_puts.append((event, item))
        return event

    def get(self) -> Event:
        """Request the next item; the event's value is the item."""
        event = self.sim.event(name=f"{self.name}.get")
        if self._items:
            value = self._items.popleft()
            self.total_gets += 1
            event.succeed(value)
            self._drain_pending_puts()
        else:
            self._pending_gets.append(event)
        return event

    # ------------------------------------------------------------------
    def _accept(self, item: Any) -> None:
        """Store ``item``, serving a pending get immediately if one waits."""
        if self._pending_gets:
            getter = self._pending_gets.popleft()
            self.total_puts += 1
            self.total_gets += 1
            getter.succeed(item)
            return
        self._items.append(item)
        self.total_puts += 1
        self.max_occupancy = max(self.max_occupancy, len(self._items))

    def _drain_pending_puts(self) -> None:
        while self._pending_puts and not self.is_full:
            event, item = self._pending_puts.popleft()
            self._accept(item)
            event.succeed(item)


# ----------------------------------------------------------------------
# accel/memory_manager.py
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BufferSegment:
    """Handle to one on-chip buffer segment."""

    index: int
    nbytes: int


class BufferPool:
    """Segment allocator with configurable reuse policy."""

    def __init__(
        self,
        sim: Simulator,
        config: BufferConfig,
        reuse: bool,
        counters: RunCounters,
        trace: Optional[Trace] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.reuse = reuse
        self.counters = counters
        self.trace = trace
        self._free: List[BufferSegment] = [
            BufferSegment(index=i, nbytes=config.segment_bytes)
            for i in range(config.n_segments)
        ]
        self._retired: List[BufferSegment] = []
        self._in_flight = 0
        self._waiters: Deque[Tuple[Event, int]] = deque()
        self._flush_pending = False
        # statistics
        self.n_acquires = 0
        self.n_flushes = 0

    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return self.config.n_segments

    @property
    def free_segments(self) -> int:
        return len(self._free)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    # ------------------------------------------------------------------
    def acquire(self, label: str = "") -> Event:
        """Request one segment; the event's value is a :class:`BufferSegment`."""
        event = self.sim.event(name=f"buffer.acquire({label})")
        if self._free:
            self._grant(event, requested_at=self.sim.now)
        else:
            self._waiters.append((event, self.sim.now))
        return event

    def release(self, segment: BufferSegment) -> None:
        """Return a segment after its data has been consumed."""
        if not isinstance(segment, BufferSegment):
            raise TypeError("release expects a BufferSegment")
        if self._in_flight <= 0:
            raise RuntimeError("release called with no segment in flight")
        self._in_flight -= 1
        if self.reuse:
            self._free.append(segment)
            self._serve_waiters()
            return
        # No-reuse policy: park until the whole pool has drained.
        self._retired.append(segment)
        if (
            len(self._retired) == self.config.n_segments
            and not self._flush_pending
        ):
            self._start_flush()

    # ------------------------------------------------------------------
    def _grant(self, event: Event, requested_at: int) -> None:
        segment = self._free.pop(0)
        self._in_flight += 1
        self.n_acquires += 1
        wait = self.sim.now - requested_at
        if wait > 0:
            self.counters.buffer_stall_cycles += wait
        event.succeed(segment)

    def _serve_waiters(self) -> None:
        while self._waiters and self._free:
            event, requested_at = self._waiters.popleft()
            self._grant(event, requested_at)

    def _start_flush(self) -> None:
        """Model the bulk reallocation of the drained pool."""
        self._flush_pending = True
        self.n_flushes += 1
        start = self.sim.now
        flush_done = self.sim.timeout(self.config.reuse_flush_cycles)

        def finish(_event: Event) -> None:
            self._flush_pending = False
            self._free.extend(self._retired)
            self._retired.clear()
            if self.trace is not None:
                self.trace.record(
                    engine="buffer-pool", label="flush",
                    start=start, end=self.sim.now, category="stall",
                )
            self._serve_waiters()

        flush_done.add_callback(finish)


# ----------------------------------------------------------------------
# sim/memory.py
# ----------------------------------------------------------------------
class MemoryPort:
    """Issues read/write transactions against a memory system model."""

    def __init__(
        self,
        spec: MemorySystemSpec,
        clock_hz: float,
        counters: RunCounters,
        trace: Optional[Trace] = None,
        name: str = "hbm",
    ) -> None:
        self.model = MemorySystemModel(spec, clock_hz)
        self._n_channels = spec.n_channels
        self.counters = counters
        self.trace = trace
        self.name = name

    def _transfer(self, n_bytes: int, now: int, label: str, is_write: bool) -> int:
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        completion, channel_name = self.model.stripes(
            self.model.issue_split(n_bytes, 1, now)[1])[0]
        if is_write:
            self.counters.hbm_write_bytes += n_bytes
        else:
            self.counters.hbm_read_bytes += n_bytes
        if n_bytes > 0:
            self.counters.dma_transfers += 1
        if self.trace is not None and n_bytes > 0:
            self.trace.record(
                engine=f"{self.name}:{channel_name}", label=label,
                start=now, end=completion, category="transfer",
            )
        # Whether the time up to ``completion`` is exposed as a memory
        # stall is the caller's decision: a sequential controller waits
        # for it, a pipelined one overlaps it with compute.
        return completion

    # ------------------------------------------------------------------
    def read_striped(self, n_bytes: int, stripe: int, now: int,
                     label: str = "read") -> int:
        """Read ``n_bytes`` split evenly across ``stripe`` channels at ``now``.

        Models a wide AXI/DMA engine that pulls a tile from several HBM
        pseudo-channels concurrently; returns the cycle at which the
        slowest stripe finishes.
        """
        return self._striped(n_bytes, stripe, now, label, is_write=False)

    def write_striped(self, n_bytes: int, stripe: int, now: int,
                      label: str = "write") -> int:
        """Write ``n_bytes`` split evenly across ``stripe`` channels at ``now``."""
        return self._striped(n_bytes, stripe, now, label, is_write=True)

    def _striped(self, n_bytes: int, stripe: int, now: int, label: str,
                 is_write: bool) -> int:
        if stripe <= 0:
            raise ValueError("stripe must be positive")
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        stripe = min(stripe, self._n_channels)
        if n_bytes == 0 or stripe == 1:
            return self._transfer(n_bytes, now, label, is_write=is_write)
        if n_bytes < stripe:
            # Every stripe but the last is empty; an empty stripe occupies
            # no channel and is not a transfer.
            return self._transfer(n_bytes, now, f"{label}[{stripe - 1}]",
                                  is_write=is_write)
        latest, picks = self.model.issue_split(n_bytes, stripe, now)
        self.counters.dma_transfers += stripe
        if self.trace is not None:
            for i, (completion, channel_name) in enumerate(self.model.stripes(picks)):
                self.trace.record(
                    engine=f"{self.name}:{channel_name}", label=f"{label}[{i}]",
                    start=now, end=completion, category="transfer",
                )
        if is_write:
            self.counters.hbm_write_bytes += n_bytes
        else:
            self.counters.hbm_read_bytes += n_bytes
        return latest


# The event-returning surface the processes were written to.
class _EventPort:
    """``MemoryPort`` as the kernel's processes saw it: a transfer issued at
    ``sim.now`` that returns the ``Timeout`` of its completion."""

    def __init__(self, sim: Simulator, port: MemoryPort) -> None:
        self.sim = sim
        self.port = port

    def read_striped(self, n_bytes: int, stripe: int, label: str = "read") -> Event:
        now = self.sim.now
        return self.sim.timeout(self.port.read_striped(n_bytes, stripe, now, label) - now)

    def write_striped(self, n_bytes: int, stripe: int, label: str = "write") -> Event:
        now = self.sim.now
        return self.sim.timeout(self.port.write_striped(n_bytes, stripe, now, label) - now)


# ----------------------------------------------------------------------
# accel/pipeline.py
# ----------------------------------------------------------------------
@dataclass
class KernelResult(StepResult):
    """``StepResult`` as it was: the run's intervals in a :class:`Trace`."""

    trace: Optional[Trace] = None


class KernelExecutor:
    """``PipelineExecutor`` as three generator processes on the kernel."""

    def __init__(self, config: AcceleratorConfig, platform: FpgaPlatform) -> None:
        self.config = config
        self.platform = platform

    # ------------------------------------------------------------------
    def run(self, program: Program) -> KernelResult:
        """Simulate one program and return its cycle count and counters."""
        sim = Simulator()
        counters = RunCounters()
        trace = Trace(enabled=self.config.trace_enabled)
        memory = _EventPort(sim, MemoryPort(
            self.platform.hbm, self.platform.clock_hz, counters,
            trace if self.config.trace_enabled else None,
        ))
        buffers = BufferPool(
            sim, self.config.buffers, reuse=self.config.memory_reuse,
            counters=counters,
            trace=trace if self.config.trace_enabled else None,
        )
        busy: Dict[str, int] = {"load": 0, "mpe": 0, "sfu": 0, "store": 0}

        if self.config.pipeline:
            self._run_pipelined(sim, program, memory, buffers, counters, busy, trace)
        else:
            self._run_sequential(sim, program, memory, buffers, counters, busy, trace)

        cycles = sim.run()
        self._accumulate_packet_counters(program, counters)
        return KernelResult(
            cycles=cycles,
            counters=counters,
            trace=trace if self.config.trace_enabled else None,
            engine_busy=dict(busy),
            n_flushes=buffers.n_flushes,
        )

    # ------------------------------------------------------------------
    def _accumulate_packet_counters(self, program: Program, counters: RunCounters) -> None:
        for packet in program.packets():
            counters.instructions += 1
            counters.int8_macs += packet.macs
            counters.sfu_flops += packet.sfu_flops
            counters.onchip_read_bytes += packet.onchip_bytes
            counters.onchip_write_bytes += packet.onchip_bytes
            counters.dequant_flops += packet.dequant_flops
            counters.quant_saved_bytes += packet.saved_bytes
            if packet.unit is ComputeUnit.MPE:
                counters.mpe_tiles += 1
            elif packet.unit is ComputeUnit.SFU:
                counters.sfu_ops += 1

    @staticmethod
    def _engine_for(packet: TilePacket) -> str:
        return "mpe" if packet.unit is ComputeUnit.MPE else "sfu"

    # ------------------------------------------------------------------
    # Sequential (unoptimized) discipline
    # ------------------------------------------------------------------
    def _run_sequential(
        self,
        sim: Simulator,
        program: Program,
        memory: _EventPort,
        buffers: BufferPool,
        counters: RunCounters,
        busy: Dict[str, int],
        trace: Trace,
    ) -> None:
        stripe = self.config.hbm_stripe

        def release_when_stored(segment, start_cycle):
            def _done(_event):
                busy["store"] += sim.now - start_cycle
                buffers.release(segment)
            return _done

        def body():
            for op_program in program.ops:
                yield sim.timeout(DISPATCH_CYCLES)
                for packet, label in zip(op_program.packets, op_program.labels()):
                    segment = yield buffers.acquire(label)
                    # read: the sequential controller has a single
                    # outstanding request, so it is exposed to the full
                    # access latency of every transfer.
                    if packet.load_bytes:
                        start = sim.now
                        yield memory.read_striped(packet.load_bytes, stripe, label)
                        busy["load"] += sim.now - start
                    # compute
                    engine = self._engine_for(packet)
                    start = sim.now
                    yield sim.timeout(packet.compute_cycles)
                    busy[engine] += sim.now - start
                    trace.record(engine, label, start, sim.now)
                    # write back: stores are posted (the controller does not
                    # wait for the write acknowledgement), but the staging
                    # segment is only recycled once the data has left it.
                    if packet.store_bytes:
                        store_done = memory.write_striped(
                            packet.store_bytes, stripe, label
                        )
                        store_done.add_callback(release_when_stored(segment, sim.now))
                    else:
                        buffers.release(segment)

        sim.process(body(), name="sequential")

    # ------------------------------------------------------------------
    # Pipelined (data-stream parallel) discipline
    # ------------------------------------------------------------------
    def _run_pipelined(
        self,
        sim: Simulator,
        program: Program,
        memory: _EventPort,
        buffers: BufferPool,
        counters: RunCounters,
        busy: Dict[str, int],
        trace: Trace,
    ) -> None:
        stripe = self.config.hbm_stripe
        # Depth-2 streams model ping-pong (double) buffering between stages.
        loaded = Stream(sim, capacity=2, name="loaded")
        computed = Stream(sim, capacity=2, name="computed")
        done = sim.event("pipeline-done")
        packets: List[Tuple[TilePacket, str]] = []
        dispatch_before: Dict[int, int] = {}
        index = 0
        for op_program in program.ops:
            dispatch_before[index] = DISPATCH_CYCLES
            for packet in zip(op_program.packets, op_program.labels()):
                packets.append(packet)
                index += 1
        n_packets = len(packets)

        def loader():
            # The loader *issues* each tile's read as soon as a buffer
            # segment is available and hands the in-flight transfer to the
            # compute stage through the stream; it does not wait for the
            # data itself.  Together with the depth-2 streams this keeps
            # several memory requests outstanding, which is what hides the
            # HBM access latency ("data stream parallelism").
            for i, (packet, label) in enumerate(packets):
                # Instruction dispatch for a new operator happens in the
                # front-end and briefly stalls the fetch stage.
                if i in dispatch_before:
                    yield sim.timeout(dispatch_before[i])
                segment = yield buffers.acquire(label)
                issue_cycle = sim.now
                if packet.load_bytes:
                    load_done = memory.read_striped(
                        packet.load_bytes, stripe, label
                    )
                else:
                    load_done = sim.timeout(0)
                yield loaded.put((packet, label, segment, load_done, issue_cycle))

        def computer():
            for _ in range(n_packets):
                packet, label, segment, load_done, issue_cycle = yield loaded.get()
                if not load_done.triggered:
                    wait_start = sim.now
                    yield load_done
                    counters.memory_stall_cycles += sim.now - wait_start
                if packet.load_bytes:
                    busy["load"] += sim.now - issue_cycle
                engine = self._engine_for(packet)
                start = sim.now
                yield sim.timeout(packet.compute_cycles)
                busy[engine] += sim.now - start
                trace.record(engine, label, start, sim.now)
                yield computed.put((packet, label, segment))

        def writer():
            # Write-back is fire-and-forget: the store is issued and the
            # buffer segment is released when the memory system confirms it,
            # so small result slices never stall the compute stage.
            outstanding = {"count": 0, "finished": False}

            def release_later(segment, start_cycle):
                def _done(_event):
                    busy["store"] += sim.now - start_cycle
                    buffers.release(segment)
                    outstanding["count"] -= 1
                    if outstanding["finished"] and outstanding["count"] == 0:
                        done.succeed()
                return _done

            for _ in range(n_packets):
                packet, label, segment = yield computed.get()
                if packet.store_bytes:
                    outstanding["count"] += 1
                    store_done = memory.write_striped(
                        packet.store_bytes, stripe, label
                    )
                    store_done.add_callback(release_later(segment, sim.now))
                else:
                    buffers.release(segment)
            outstanding["finished"] = True
            if outstanding["count"] == 0:
                done.succeed()

        sim.process(loader(), name="loader")
        sim.process(computer(), name="computer")
        sim.process(writer(), name="writer")
