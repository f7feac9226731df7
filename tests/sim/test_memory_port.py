"""Tests for the per-transfer counting reference — ``MemoryPort``, kept in
``tests/accel/kernel_oracle.py`` since the executor issues its transfers
on the HBM model directly — and for the executor's own transfer path,
``repro.accel.pipeline._transfer``, held to it."""

from __future__ import annotations

import math

import pytest

from repro.accel.config import AcceleratorConfig
from repro.accel.instructions import OpProgram, Program, TilePacket
from repro.accel.pipeline import PipelineExecutor, _transfer
from repro.fpga.hbm import MemorySystemModel, MemorySystemSpec
from repro.fpga.u280 import u280
from repro.graph.ops import ComputeUnit
from repro.sim.stats import RunCounters
from tests.accel.kernel_oracle import MemoryPort, Trace, trace_events
from tests.accel.strategies import named

CLOCK = 225e6


def _port(n_channels=4, trace=None, counters=None):
    counters = counters if counters is not None else RunCounters()
    port = MemoryPort(MemorySystemSpec.u280_hbm(n_channels), CLOCK,
                      counters, trace)
    return port, counters


class _ByName(dict):
    """Labels where every packet is named by itself."""

    def __missing__(self, packet):
        return packet


def _executor_transfer(n_channels=4, stripe=1, spans=None):
    """The executor's ``transfer(n_bytes, now, packet)`` over a fresh
    model, with the stripe clamped to the channel count as ``run`` clamps
    it, and each packet given as its label."""
    model = MemorySystemModel(MemorySystemSpec.u280_hbm(n_channels), CLOCK)
    return _transfer(model, min(stripe, n_channels), spans, _ByName()), model


def _run(packets, hbm_stripe=16, n_channels=32):
    program = Program([named("x", [
        TilePacket(ComputeUnit.MPE, load, 1, store) for load, store in packets])])
    config = AcceleratorConfig(hbm_stripe=hbm_stripe, trace_enabled=True)
    return PipelineExecutor(config, u280(n_hbm_channels=n_channels)).run(program)


def _hbm_events(result):
    return [(e.engine, e.label) for e in trace_events(result.spans)
            if e.engine.startswith("hbm:")]


class TestMemoryPort:
    def test_read_advances_time_and_counts_bytes(self):
        port, counters = _port()
        assert port.read_striped(1 << 16, 1, 0, "weights") > 0
        assert counters.hbm_read_bytes == 1 << 16
        assert counters.hbm_write_bytes == 0
        assert counters.dma_transfers == 1

    def test_write_counts_separately(self):
        port, counters = _port()
        port.write_striped(4096, 1, 0, "result")
        assert counters.hbm_write_bytes == 4096
        assert counters.hbm_read_bytes == 0

    def test_zero_byte_transfer_is_free(self):
        """The executor issues no transfer for a packet side that moves no
        bytes: it costs no DMA transfer and leaves no HBM event.  Neither
        transfer path accepts one."""
        result = _run([(0, 0), (0, 4096), (4096, 0)])
        assert result.counters.dma_transfers == 16 + 16
        assert len(_hbm_events(result)) == 32
        assert _run([(0, 0)]).counters.dma_transfers == 0
        port, _ = _port()
        with pytest.raises(ValueError):
            port.read_striped(0, 1, 0)
        transfer, model = _executor_transfer()
        with pytest.raises(ValueError):
            transfer(0, 0, "x")
        assert model.total_transactions == 0

    def test_negative_bytes_rejected(self):
        port, _ = _port()
        with pytest.raises(ValueError):
            port.read_striped(-1, 1, 0)
        transfer, _ = _executor_transfer()
        with pytest.raises(ValueError):
            transfer(-1, 0, "x")

    def test_striped_read_faster_than_single_channel(self):
        n_bytes = 1 << 20

        def run(stripe):
            port, _ = _port(n_channels=8)
            return port.read_striped(n_bytes, stripe, 0)

        def executor_run(stripe):
            return _executor_transfer(8, stripe)[0](n_bytes, 0, "x")

        assert run(8) < run(1)
        assert executor_run(8) == run(8) and executor_run(1) == run(1)

    def test_striped_counts_total_bytes_once(self):
        port, counters = _port(n_channels=8)
        port.read_striped(1 << 20, 8, 0)
        assert counters.hbm_read_bytes == 1 << 20
        assert counters.dma_transfers == 8
        result = _run([(1 << 20, 0)], hbm_stripe=8, n_channels=8)
        assert result.counters.hbm_read_bytes == 1 << 20
        assert result.counters.dma_transfers == 8

    def test_stripe_clamped_to_channel_count(self):
        port, counters = _port(n_channels=2)
        port.read_striped(1 << 12, 16, 0)
        assert counters.dma_transfers == 2
        assert _run([(1 << 12, 0)], hbm_stripe=16, n_channels=2).counters.dma_transfers == 2

    def test_invalid_stripe_rejected(self):
        port, _ = _port()
        with pytest.raises(ValueError):
            port.read_striped(1024, 0, 0)
        with pytest.raises(ValueError):
            AcceleratorConfig(hbm_stripe=0)

    def test_trace_records_transfers(self):
        trace = Trace()
        port, _ = _port(trace=trace)
        port.read_striped(4096, 1, 0, "tile0")
        assert len(trace) == 1
        assert trace.events[0].category == "transfer"
        assert "tile0" in trace.events[0].label
        executor_spans = []
        _executor_transfer(spans=executor_spans)[0](4096, 0, "tile0")
        assert trace_events(executor_spans) == trace.events

    def test_ideal_cycles_lower_bound(self):
        """No striped transfer beats the channels' aggregate bandwidth."""
        spec = MemorySystemSpec.u280_hbm(4)
        port, _ = _port(n_channels=4)
        measured = port.read_striped(1 << 20, 4, 0)
        ideal = math.ceil((1 << 20) / (4 * spec.channels[0].bytes_per_cycle(CLOCK)))
        assert ideal <= measured

    def test_reset_clears_channel_state(self):
        """Every run starts on idle channels: a run owns a fresh model, so
        running a program again neither queues behind the last run's
        transfers nor adds to its counters."""
        program = Program([OpProgram("x", ComputeUnit.MPE, [
            TilePacket(ComputeUnit.MPE, 1 << 20, 1, 0)])])
        executor = PipelineExecutor(AcceleratorConfig(), u280(n_hbm_channels=1))
        first, second = executor.run(program), executor.run(program)
        assert (first.cycles, first.counters) == (second.cycles, second.counters)
        assert first.counters.dma_transfers == 1


def _stripe_by_stripe(model, n_bytes, stripe, now, label, records):
    """A striped transfer as the port first issued it — one single-stripe
    model call per stripe — appending the trace records it owes; returns
    completion.  A stripe without bytes is not issued."""
    stripe = min(stripe, len(model._names))
    if n_bytes == 0 or stripe == 1:
        sizes, labels = [n_bytes], [label]
    else:
        chunk = n_bytes // stripe
        sizes = [chunk] * (stripe - 1) + [n_bytes - chunk * (stripe - 1)]
        labels = [f"{label}[{i}]" for i in range(stripe)]
    latest = now
    for size, stripe_label in zip(sizes, labels):
        if size == 0:
            continue
        completion, channel = model.stripes(model.issue_split(size, 1, now)[1])[0]
        latest = max(latest, completion)
        records.append((f"hbm:{channel}", stripe_label, now, completion,
                        "transfer"))
    return latest


class TestStripedIssueIsOneModelCall:
    @pytest.mark.parametrize("stripe", [1, 4, 16, 64])
    @pytest.mark.parametrize("n_bytes", [0, 5, 4096, (1 << 20) + 3])
    def test_equals_the_same_bytes_issued_stripe_by_stripe(self, n_bytes, stripe):
        """Reads and posted writes interleaved (a write and the next read
        share a cycle), on the port and on the executor's transfer path:
        completion cycles, counters, the full trace and every channel's
        place in the arbitration order equal those of per-stripe model
        calls.  A transfer of no bytes is not issued, as the executor
        issues none."""
        trace, executor_spans = Trace(), []
        port, counters = _port(n_channels=32, trace=trace)
        transfer, executor_model = _executor_transfer(32, stripe, executor_spans)
        reference = MemorySystemModel(MemorySystemSpec.u280_hbm(32), CLOCK)
        records, expected_done, done = [], {}, {}

        def issue(method, label, now):
            expected_done[label] = _stripe_by_stripe(
                reference, n_bytes, stripe, now, label, records)
            if n_bytes == 0:
                done[label] = now
            else:
                done[label] = method(n_bytes, stripe, now, label)
                assert transfer(n_bytes, now, label) == done[label]
            return done[label]

        now = 0
        for i in range(3):
            now = issue(port.read_striped, f"load{i}", now)
            posted = issue(port.write_striped, f"store{i}", now)
            now = issue(port.read_striped, f"reload{i}", now)
            now = max(now + 7, posted)
        assert done == expected_done and len(done) == 9
        assert [(e.engine, e.label, e.start, e.end, e.category)
                for e in trace.events] == records
        assert trace_events(executor_spans) == trace.events
        assert counters.dma_transfers == len(records)
        assert counters.hbm_read_bytes == 6 * n_bytes
        assert counters.hbm_write_bytes == 3 * n_bytes
        # Every channel's ``busy_until`` and rank, and the transaction total.
        for model in (port.model, executor_model):
            assert model._order == reference._order
            assert model.total_transactions == reference.total_transactions == len(records)

    def test_fewer_bytes_than_stripes_is_one_transfer(self):
        """5 bytes over 16 stripes: 15 empty stripes consume no channel
        and count nothing; the last carries all five bytes."""
        trace, executor_spans = Trace(), []
        port, counters = _port(n_channels=32, trace=trace)
        port.read_striped(5, 16, 0, "tiny")
        assert counters.dma_transfers == 1
        assert [(e.engine, e.label) for e in trace.events] == [("hbm:hbm0", "tiny[15]")]
        assert port.model.total_transactions == 1
        transfer, model = _executor_transfer(32, 16, executor_spans)
        transfer(5, 0, "tiny")
        assert trace_events(executor_spans) == trace.events
        assert model.total_transactions == 1

    def test_invalid_striped_arguments_still_rejected(self):
        port, _ = _port()
        for method in (port.read_striped, port.write_striped):
            with pytest.raises(ValueError):
                method(-1, 4, 0)
            with pytest.raises(ValueError):
                method(1024, 0, 0)
            with pytest.raises(ValueError):
                method(1024, -2, 0)
        for stripe, n_bytes in [(4, -1), (0, 1024), (-2, 1024)]:
            transfer, model = _executor_transfer(4, stripe)
            with pytest.raises(ValueError):
                transfer(n_bytes, 0, "x")
            assert model.total_transactions == 0
