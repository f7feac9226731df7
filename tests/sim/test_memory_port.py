"""Tests for repro.sim.memory (the MemoryPort simulation wrapper)."""

from __future__ import annotations

import pytest

from repro.fpga.hbm import MemorySystemModel, MemorySystemSpec
from repro.sim.engine import Simulator
from repro.sim.memory import MemoryPort
from repro.sim.stats import RunCounters
from repro.sim.trace import Trace

CLOCK = 225e6


def _port(n_channels=4, trace=None, counters=None):
    sim = Simulator()
    counters = counters if counters is not None else RunCounters()
    port = MemoryPort(sim, MemorySystemSpec.u280_hbm(n_channels), CLOCK,
                      counters, trace)
    return sim, port, counters


class TestMemoryPort:
    def test_read_advances_time_and_counts_bytes(self):
        sim, port, counters = _port()
        finished = []

        def proc():
            yield port.read(1 << 16, "weights")
            finished.append(sim.now)

        sim.process(proc())
        sim.run()
        assert finished and finished[0] > 0
        assert counters.hbm_read_bytes == 1 << 16
        assert counters.hbm_write_bytes == 0
        assert counters.dma_transfers == 1

    def test_write_counts_separately(self):
        sim, port, counters = _port()

        def proc():
            yield port.write(4096, "result")

        sim.process(proc())
        sim.run()
        assert counters.hbm_write_bytes == 4096
        assert counters.hbm_read_bytes == 0

    def test_zero_byte_transfer_is_free(self):
        sim, port, counters = _port()
        times = []

        def proc():
            yield port.read(0)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [0]
        assert counters.dma_transfers == 0

    def test_negative_bytes_rejected(self):
        _, port, _ = _port()
        with pytest.raises(ValueError):
            port.read(-1)

    def test_striped_read_faster_than_single_channel(self):
        n_bytes = 1 << 20

        def run(stripe):
            sim, port, _ = _port(n_channels=8)
            end = []

            def proc():
                yield port.read_striped(n_bytes, stripe)
                end.append(sim.now)

            sim.process(proc())
            sim.run()
            return end[0]

        assert run(8) < run(1)

    def test_striped_counts_total_bytes_once(self):
        sim, port, counters = _port(n_channels=8)

        def proc():
            yield port.read_striped(1 << 20, 8)

        sim.process(proc())
        sim.run()
        assert counters.hbm_read_bytes == 1 << 20
        assert counters.dma_transfers == 8

    def test_stripe_clamped_to_channel_count(self):
        sim, port, counters = _port(n_channels=2)

        def proc():
            yield port.read_striped(1 << 12, 16)

        sim.process(proc())
        sim.run()
        assert counters.dma_transfers == 2

    def test_invalid_stripe_rejected(self):
        _, port, _ = _port()
        with pytest.raises(ValueError):
            port.read_striped(1024, 0)

    def test_trace_records_transfers(self):
        trace = Trace()
        sim, port, _ = _port(trace=trace)

        def proc():
            yield port.read(4096, "tile0")

        sim.process(proc())
        sim.run()
        assert len(trace) == 1
        assert trace.events[0].category == "transfer"
        assert "tile0" in trace.events[0].label

    def test_ideal_cycles_lower_bound(self):
        sim, port, _ = _port(n_channels=4)
        measured = []

        def proc():
            yield port.read_striped(1 << 20, 4)
            measured.append(sim.now)

        sim.process(proc())
        sim.run()
        assert port.ideal_cycles(1 << 20) <= measured[0] + 64

    def test_reset_clears_channel_state(self):
        sim, port, _ = _port(n_channels=1)

        def proc():
            yield port.read(1 << 20)

        sim.process(proc())
        sim.run()
        port.reset()
        assert port.model.total_bytes_transferred == 0


def _stripe_by_stripe(model, n_bytes, stripe, now, label, records):
    """A striped transfer as the port first issued it — one ``model.issue``
    per stripe — appending the trace records it owes; returns completion."""
    stripe = min(stripe, model.spec.n_channels)
    if n_bytes == 0 or stripe == 1:
        sizes, labels = [n_bytes], [label]
    else:
        chunk = n_bytes // stripe
        sizes = [chunk] * (stripe - 1) + [n_bytes - chunk * (stripe - 1)]
        labels = [f"{label}[{i}]" for i in range(stripe)]
    latest = now
    for size, stripe_label in zip(sizes, labels):
        completion, channel = model.issue(size, now)
        latest = max(latest, completion)
        if size > 0:
            records.append((f"hbm:{channel}", stripe_label, now, completion,
                            "transfer"))
    return latest


class TestStripedIssueIsOneModelCall:
    @pytest.mark.parametrize("stripe", [1, 4, 16, 64])
    @pytest.mark.parametrize("n_bytes", [0, 5, 4096, (1 << 20) + 3])
    def test_equals_the_same_bytes_issued_stripe_by_stripe(self, n_bytes, stripe):
        """Reads and posted writes interleaved on one port (a write and
        the next read share a cycle): completion cycles, counters and the
        full trace equal those of per-stripe ``model.issue`` calls."""
        trace = Trace()
        sim, port, counters = _port(n_channels=32, trace=trace)
        reference = MemorySystemModel(MemorySystemSpec.u280_hbm(32), CLOCK)
        records, expected_done, done = [], {}, {}

        def transfer(method, label):
            expected_done[label] = _stripe_by_stripe(
                reference, n_bytes, stripe, sim.now, label, records)
            event = method(n_bytes, stripe, label)
            event.add_callback(lambda _event: done.setdefault(label, sim.now))
            return event

        def proc():
            for i in range(3):
                yield transfer(port.read_striped, f"load{i}")
                posted = transfer(port.write_striped, f"store{i}")
                yield transfer(port.read_striped, f"reload{i}")
                yield sim.timeout(7)
                yield posted

        sim.process(proc())
        sim.run()
        assert done == expected_done and len(done) == 9
        assert [(e.engine, e.label, e.start, e.end, e.category)
                for e in trace.events] == records
        assert counters.dma_transfers == len(records)
        assert counters.hbm_read_bytes == 6 * n_bytes
        assert counters.hbm_write_bytes == 3 * n_bytes
        assert {name: vars(state) for name, state in port.model.channels.items()} \
            == {name: vars(state) for name, state in reference.channels.items()}

    def test_fewer_bytes_than_stripes_is_one_transfer(self):
        """5 bytes over 16 stripes: 15 empty stripes consume no channel
        and count nothing; the last carries all five bytes."""
        trace = Trace()
        sim, port, counters = _port(n_channels=32, trace=trace)
        port.read_striped(5, 16, "tiny")
        assert counters.dma_transfers == 1
        assert [(e.engine, e.label) for e in trace.events] == [("hbm:hbm0", "tiny[15]")]
        assert port.model.total_transactions == 1

    def test_invalid_striped_arguments_still_rejected(self):
        _, port, _ = _port()
        for method in (port.read_striped, port.write_striped):
            with pytest.raises(ValueError):
                method(-1, 4)
            with pytest.raises(ValueError):
                method(1024, 0)
            with pytest.raises(ValueError):
                method(1024, -2)

    def test_unknown_channel_is_a_value_error(self):
        _, port, _ = _port()
        with pytest.raises(ValueError, match="hbm99"):
            port.read(64, channel="hbm99")
        with pytest.raises(ValueError, match="hbm99"):
            port.write(64, channel="hbm99")
