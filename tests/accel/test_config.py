"""Tests for repro.accel.config (accelerator configuration and variants)."""

from __future__ import annotations

import itertools

import pytest

from repro.accel.config import (
    AcceleratorConfig,
    BufferConfig,
    MPEConfig,
    SFUConfig,
)
from repro.accel.variants import PAPER_VARIANTS
from repro.fpga.u280 import U280_RESOURCES
from repro.quant import QuantConfig


class TestMPEConfig:
    def test_macs_per_cycle(self):
        assert MPEConfig(rows=64, cols=32).macs_per_cycle == 2048

    def test_validation(self):
        with pytest.raises(ValueError):
            MPEConfig(rows=0)
        with pytest.raises(ValueError):
            MPEConfig(pipeline_depth=-1)

    def test_resources_scale_with_array(self):
        small = MPEConfig(rows=16, cols=16).resources()
        big = MPEConfig(rows=64, cols=32).resources()
        assert big.dsp > small.dsp
        assert big.lut > small.lut


class TestSFUBufferConfig:
    def test_sfu_validation(self):
        with pytest.raises(ValueError):
            SFUConfig(lanes=0)

    def test_buffer_capacity(self):
        buf = BufferConfig(n_segments=4, segment_kb=64)
        assert buf.segment_bytes == 64 * 1024
        assert buf.total_bytes == 4 * 64 * 1024

    def test_buffer_validation(self):
        with pytest.raises(ValueError):
            BufferConfig(n_segments=0)
        with pytest.raises(ValueError):
            BufferConfig(reuse_flush_cycles=-1)


class TestAcceleratorConfig:
    def test_default_is_fully_optimized(self):
        cfg = AcceleratorConfig()
        assert cfg.pipeline and cfg.memory_reuse and cfg.operator_fusion

    def test_default_quant_is_the_int8_datapath(self):
        quant = AcceleratorConfig().quant
        assert quant == QuantConfig.datapath(8)
        assert quant.bytes_per_element(quant.weights) == 1
        wide = AcceleratorConfig(quant=QuantConfig.datapath(16)).quant
        assert wide.bytes_per_element(wide.weights) == 2
        with pytest.raises(ValueError):
            QuantConfig.datapath(5)
        with pytest.raises(TypeError):
            AcceleratorConfig(quant=None)

    def test_design_fits_on_u280(self):
        assert AcceleratorConfig().resources().fits_in(U280_RESOURCES)

    def test_describe_contains_flags(self):
        desc = AcceleratorConfig.variant("no-fusion").describe()
        assert desc["operator_fusion"] is False
        assert desc["pipeline"] is True
        assert desc["mpe"] == "64x32"

    def test_replace(self):
        cfg = AcceleratorConfig().replace(hbm_stripe=4)
        assert cfg.hbm_stripe == 4
        with pytest.raises(ValueError):
            AcceleratorConfig(hbm_stripe=0)


class TestVariants:
    @pytest.mark.parametrize("name", sorted(PAPER_VARIANTS))
    def test_all_variants_construct(self, name):
        cfg = AcceleratorConfig.variant(name)
        assert cfg.name == f"speedllm-{name}"

    @pytest.mark.parametrize("pipeline, memory_reuse, operator_fusion",
                             list(itertools.product((True, False), repeat=3)))
    def test_every_flag_combination_constructs(self, pipeline, memory_reuse,
                                               operator_fusion):
        cfg = AcceleratorConfig(pipeline=pipeline, memory_reuse=memory_reuse,
                                operator_fusion=operator_fusion)
        described = cfg.describe()
        assert (described["pipeline"], described["memory_reuse"],
                described["operator_fusion"]) == (pipeline, memory_reuse,
                                                  operator_fusion)

    def test_flag_combinations(self):
        assert AcceleratorConfig.variant("unoptimized").pipeline is False
        assert AcceleratorConfig.variant("unoptimized").memory_reuse is False
        assert AcceleratorConfig.variant("unoptimized").operator_fusion is False
        assert AcceleratorConfig.variant("no-fusion").operator_fusion is False
        assert AcceleratorConfig.variant("no-fusion").pipeline is True
        assert AcceleratorConfig.variant("no-pipeline").pipeline is False
        assert AcceleratorConfig.variant("no-reuse").memory_reuse is False

    def test_unknown_variant_rejected(self):
        with pytest.raises(KeyError):
            AcceleratorConfig.variant("turbo")

    def test_variant_overrides_applied(self):
        cfg = AcceleratorConfig.variant("full", hbm_stripe=8,
                                        quant=QuantConfig.datapath(4))
        assert cfg.hbm_stripe == 8
        assert cfg.quant.weights.bits == 4
