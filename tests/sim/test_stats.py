"""Tests for repro.sim.stats."""

from __future__ import annotations

import pytest

from repro.sim.stats import RunCounters


class TestRunCounters:
    def test_defaults_zero(self):
        counters = RunCounters()
        assert counters.hbm_bytes == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RunCounters(int8_macs=-1)

    def test_derived_sums(self):
        counters = RunCounters(hbm_read_bytes=10, hbm_write_bytes=5,
                               onchip_read_bytes=3, onchip_write_bytes=4)
        assert counters.hbm_bytes == 15
        assert counters.onchip_bytes == 7

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
