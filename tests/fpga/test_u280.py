"""Tests for repro.fpga.u280."""

from __future__ import annotations

import pytest

from repro.fpga.u280 import U280_RESOURCES, FpgaPlatform, u280


class TestU280Platform:
    def test_datasheet_budget(self):
        plat = u280()
        assert plat.resources == U280_RESOURCES
        assert plat.resources.dsp == 9024
        assert plat.resources.bram_36k == 2016
        assert plat.resources.uram == 960

    def test_hbm_subsystem(self):
        plat = u280()
        assert plat.hbm.n_channels == 32
        assert sum(c.bandwidth_gbps for c in plat.hbm.channels) > 400

    def test_onchip_capacity_tens_of_megabytes(self):
        plat = u280()
        assert 30e6 < plat.onchip_bytes < 50e6

    def test_price_matches_paper(self):
        assert u280().price_usd == pytest.approx(8000.0)

    def test_cycles_to_seconds(self):
        plat = u280(clock_mhz=225)
        assert plat.clock_hz == 225e6
        assert plat.cycles_to_seconds(225_000_000) == pytest.approx(1.0)
        assert plat.cycle_seconds == pytest.approx(1 / 225e6)
        with pytest.raises(ValueError):
            plat.cycles_to_seconds(-1)

    def test_energy_model_uses_platform_config(self):
        plat = u280()
        model = plat.energy_model()
        assert model.config == plat.energy_config

    def test_hbm_channel_subset(self):
        assert u280(n_hbm_channels=16).hbm.n_channels == 16

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FpgaPlatform(
                name="bad", resources=U280_RESOURCES,
                hbm=u280().hbm, clock_mhz=0,
                price_usd=1, max_power_w=1,
            )
        with pytest.raises(ValueError):
            u280(clock_mhz=-5)
