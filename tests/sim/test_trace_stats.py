"""Tests for repro.sim.trace and repro.sim.stats."""

from __future__ import annotations

import pytest

from repro.sim.stats import RunCounters
from repro.sim.trace import Trace, TraceEvent


class TestTraceEvent:
    def test_duration(self):
        assert TraceEvent("mpe", "t0", 10, 25).duration == 15

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent("mpe", "t0", 10, 5)
        with pytest.raises(ValueError):
            TraceEvent("mpe", "t0", -1, 5)


class TestTrace:
    def test_records_in_order(self):
        trace = Trace()
        trace.record("mpe", "a", 0, 10)
        trace.record("load", "x", 0, 15, category="transfer")
        assert len(trace) == 2
        assert trace.events == [
            TraceEvent("mpe", "a", 0, 10),
            TraceEvent("load", "x", 0, 15, category="transfer"),
        ]

    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)
        trace.record("mpe", "a", 0, 5)
        assert len(trace) == 0

    def test_zero_length_event_is_recorded(self):
        trace = Trace()
        trace.record("mpe", "flash", 10, 10)
        (ev,) = trace.events
        assert ev.duration == 0


class TestRunCounters:
    def test_defaults_zero(self):
        counters = RunCounters()
        assert counters.hbm_bytes == 0
        assert counters.stall_cycles == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RunCounters(int8_macs=-1)

    def test_derived_sums(self):
        counters = RunCounters(hbm_read_bytes=10, hbm_write_bytes=5,
                               onchip_read_bytes=3, onchip_write_bytes=4,
                               buffer_stall_cycles=7, memory_stall_cycles=2)
        assert counters.hbm_bytes == 15
        assert counters.onchip_bytes == 7
        assert counters.stall_cycles == 9

    def test_merge_adds_every_field(self):
        a = RunCounters(int8_macs=5, instructions=2)
        b = RunCounters(int8_macs=7, sfu_ops=3)
        merged = a + b
        assert merged.int8_macs == 12
        assert merged.instructions == 2
        assert merged.sfu_ops == 3
        # operands untouched
        assert a.int8_macs == 5 and b.int8_macs == 7

    def test_as_dict_covers_all_counters(self):
        d = RunCounters().as_dict()
        assert "hbm_read_bytes" in d and "buffer_stall_cycles" in d
        assert all(v == 0 for v in d.values())
