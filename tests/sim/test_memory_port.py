"""Tests for repro.sim.memory (the MemoryPort simulation wrapper)."""

from __future__ import annotations

import pytest

from repro.fpga.hbm import MemorySystemModel, MemorySystemSpec
from repro.sim.memory import MemoryPort
from repro.sim.stats import RunCounters
from repro.sim.trace import Trace

CLOCK = 225e6


def _port(n_channels=4, trace=None, counters=None):
    counters = counters if counters is not None else RunCounters()
    port = MemoryPort(MemorySystemSpec.u280_hbm(n_channels), CLOCK,
                      counters, trace)
    return port, counters


class TestMemoryPort:
    def test_read_advances_time_and_counts_bytes(self):
        port, counters = _port()
        assert port.read(1 << 16, 0, "weights") > 0
        assert counters.hbm_read_bytes == 1 << 16
        assert counters.hbm_write_bytes == 0
        assert counters.dma_transfers == 1

    def test_write_counts_separately(self):
        port, counters = _port()
        port.write(4096, 0, "result")
        assert counters.hbm_write_bytes == 4096
        assert counters.hbm_read_bytes == 0

    def test_zero_byte_transfer_is_free(self):
        port, counters = _port()
        assert port.read(0, 0) == 0
        assert port.read(0, 17) == 17
        assert counters.dma_transfers == 0

    def test_negative_bytes_rejected(self):
        port, _ = _port()
        with pytest.raises(ValueError):
            port.read(-1, 0)

    def test_striped_read_faster_than_single_channel(self):
        n_bytes = 1 << 20

        def run(stripe):
            port, _ = _port(n_channels=8)
            return port.read_striped(n_bytes, stripe, 0)

        assert run(8) < run(1)

    def test_striped_counts_total_bytes_once(self):
        port, counters = _port(n_channels=8)
        port.read_striped(1 << 20, 8, 0)
        assert counters.hbm_read_bytes == 1 << 20
        assert counters.dma_transfers == 8

    def test_stripe_clamped_to_channel_count(self):
        port, counters = _port(n_channels=2)
        port.read_striped(1 << 12, 16, 0)
        assert counters.dma_transfers == 2

    def test_invalid_stripe_rejected(self):
        port, _ = _port()
        with pytest.raises(ValueError):
            port.read_striped(1024, 0, 0)

    def test_trace_records_transfers(self):
        trace = Trace()
        port, _ = _port(trace=trace)
        port.read(4096, 0, "tile0")
        assert len(trace) == 1
        assert trace.events[0].category == "transfer"
        assert "tile0" in trace.events[0].label

    def test_ideal_cycles_lower_bound(self):
        port, _ = _port(n_channels=4)
        measured = port.read_striped(1 << 20, 4, 0)
        assert port.ideal_cycles(1 << 20) <= measured + 64

    def test_reset_clears_channel_state(self):
        port, _ = _port(n_channels=1)
        port.read(1 << 20, 0)
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
        port, counters = _port(n_channels=32, trace=trace)
        reference = MemorySystemModel(MemorySystemSpec.u280_hbm(32), CLOCK)
        records, expected_done, done = [], {}, {}

        def transfer(method, label, now):
            expected_done[label] = _stripe_by_stripe(
                reference, n_bytes, stripe, now, label, records)
            done[label] = method(n_bytes, stripe, now, label)
            return done[label]

        now = 0
        for i in range(3):
            now = transfer(port.read_striped, f"load{i}", now)
            posted = transfer(port.write_striped, f"store{i}", now)
            now = transfer(port.read_striped, f"reload{i}", now)
            now = max(now + 7, posted)
        assert done == expected_done and len(done) == 9
        assert [(e.engine, e.label, e.start, e.end, e.category)
                for e in trace.events] == records
        assert counters.dma_transfers == len(records)
        assert counters.hbm_read_bytes == 6 * n_bytes
        assert counters.hbm_write_bytes == 3 * n_bytes
        # Per-channel ``busy_until`` (all a ``ChannelState`` holds) and the
        # model's three traffic totals.
        assert port.model.channels == reference.channels
        assert [(m.total_bytes_transferred, m.total_transactions, m.utilization(1 << 20))
                for m in (port.model, reference)] == [
            (9 * n_bytes, len(records), reference.utilization(1 << 20))] * 2

    def test_fewer_bytes_than_stripes_is_one_transfer(self):
        """5 bytes over 16 stripes: 15 empty stripes consume no channel
        and count nothing; the last carries all five bytes."""
        trace = Trace()
        port, counters = _port(n_channels=32, trace=trace)
        port.read_striped(5, 16, 0, "tiny")
        assert counters.dma_transfers == 1
        assert [(e.engine, e.label) for e in trace.events] == [("hbm:hbm0", "tiny[15]")]
        assert port.model.total_transactions == 1

    def test_invalid_striped_arguments_still_rejected(self):
        port, _ = _port()
        for method in (port.read_striped, port.write_striped):
            with pytest.raises(ValueError):
                method(-1, 4, 0)
            with pytest.raises(ValueError):
                method(1024, 0, 0)
            with pytest.raises(ValueError):
                method(1024, -2, 0)

    def test_unknown_channel_is_a_value_error(self):
        port, _ = _port()
        with pytest.raises(ValueError, match="hbm99"):
            port.read(64, 0, channel="hbm99")
        with pytest.raises(ValueError, match="hbm99"):
            port.write(64, 0, channel="hbm99")
