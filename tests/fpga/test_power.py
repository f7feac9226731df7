"""Tests for repro.fpga.power."""

from __future__ import annotations

import pytest

from repro.fpga.power import EnergyBreakdown, EnergyModel, EnergyModelConfig


class TestEnergyModelConfig:
    def test_defaults_valid(self):
        cfg = EnergyModelConfig()
        assert cfg.static_power_w > 0

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            EnergyModelConfig(pj_per_hbm_byte=-1)

    def test_effective_has_lower_static_than_board(self):
        assert (EnergyModelConfig.effective().static_power_w
                < EnergyModelConfig().static_power_w)


class TestEnergyBreakdown:
    def test_total_is_sum_of_components(self):
        b = EnergyBreakdown(static_j=1.0, active_j=2.0, compute_j=0.5,
                            sfu_j=0.25, onchip_j=0.1, offchip_j=0.15)
        assert b.total_j == pytest.approx(4.0)
        assert b.dynamic_j == pytest.approx(3.0)
        assert b.as_dict()["total_j"] == pytest.approx(4.0)


class TestEnergyModel:
    def test_static_energy_scales_with_time(self):
        model = EnergyModel()
        short = model.energy(elapsed_seconds=0.1, clock_mhz=225)
        long = model.energy(elapsed_seconds=0.2, clock_mhz=225)
        assert long.static_j == pytest.approx(2 * short.static_j)

    def test_activity_energy_components(self):
        model = EnergyModel()
        b = model.energy(
            elapsed_seconds=1.0, clock_mhz=225,
            int8_macs=10 ** 9, sfu_flops=10 ** 6,
            onchip_bytes=10 ** 6, hbm_bytes=10 ** 7,
            busy_seconds=0.5,
        )
        cfg = model.config
        assert b.compute_j == pytest.approx(10 ** 9 * cfg.pj_per_int8_mac * 1e-12)
        assert b.offchip_j == 10 ** 7 * cfg.pj_per_hbm_byte * 1e-12
        assert b.active_j == pytest.approx(cfg.active_power_w * 0.5)
        assert b.total_j > b.static_j

    def test_more_hbm_traffic_costs_more(self):
        model = EnergyModel()
        low = model.energy(1.0, 225, hbm_bytes=10 ** 6)
        high = model.energy(1.0, 225, hbm_bytes=10 ** 9)
        assert high.total_j > low.total_j

    def test_busy_cannot_exceed_elapsed(self):
        model = EnergyModel()
        with pytest.raises(ValueError):
            model.energy(elapsed_seconds=1.0, clock_mhz=225, busy_seconds=2.0)

    def test_negative_counters_rejected(self):
        model = EnergyModel()
        with pytest.raises(ValueError):
            model.energy(1.0, 225, int8_macs=-1)
        with pytest.raises(ValueError):
            model.energy(-1.0, 225)
        with pytest.raises(ValueError):
            model.energy(1.0, 0)

    def test_faster_run_with_same_work_is_more_efficient(self):
        """Static amortisation: same activity in less time => fewer joules."""
        model = EnergyModel()
        slow = model.energy(1.0, 225, int8_macs=10 ** 9, hbm_bytes=10 ** 8,
                            busy_seconds=0.05)
        fast = model.energy(0.2, 225, int8_macs=10 ** 9, hbm_bytes=10 ** 8,
                            busy_seconds=0.05)
        assert fast.total_j < slow.total_j
