"""Precision is one decision: ``AcceleratorConfig.quant``.

The paper's int8 datapath, full precision and the serving modes are all
:class:`~repro.quant.QuantConfig` values; nothing else in the stack picks
a width for a weight or a KV byte.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.config import AcceleratorConfig
from repro.api import EngineConfig
from repro.compile.pipeline import StepCompiler
from repro.fpga.u280 import u280
from repro.graph.builder import GraphBuilder
from repro.llama.checkpoint import synthesize_weights
from repro.llama.config import preset
from repro.llama.quantization import QuantizedTensor, QuantSpec, dequantize
from repro.quant import QuantConfig, quantize_checkpoint


class TestTheConfigs:
    def test_the_default_is_the_int8_datapath_everywhere(self, micro_config):
        datapath = QuantConfig.datapath()
        assert AcceleratorConfig().quant == datapath
        assert AcceleratorConfig.variant("unoptimized").quant == datapath
        assert GraphBuilder(micro_config).quant == datapath
        assert datapath.weights == datapath.logits == QuantSpec(8, 64)
        assert datapath.kv is None and datapath.scales_on_chip

    @pytest.mark.parametrize("quant, label, streams", [
        (QuantConfig.datapath(), "w8", False),
        (QuantConfig.datapath(4), "w4", False),
        (dataclasses.replace(QuantConfig.datapath(), kv=QuantSpec(8, 64)),
         "w8+kv8", True),
        (QuantConfig.fp32(), "fp32", False),
        (QuantConfig.from_mode("fp32"), "fp32", False),
        (QuantConfig.from_mode("fp32", quant_kv=True), "fp32+kv8", True),
        (QuantConfig.from_mode("int8", quant_kv=True), "int8g64+kv8", True),
        (QuantConfig.from_mode("int4"), "int4g64+head8", True),
        (QuantConfig.from_mode("int8", fp32_logits=True), "int8g64+fp32head",
         True),
    ])
    def test_labels_and_which_configs_stream_scales(self, quant, label,
                                                     streams):
        assert quant.label == label
        assert quant.streams_scales is streams

    @pytest.mark.parametrize("quant, width", [
        (QuantConfig.datapath(4), 0.5), (QuantConfig.datapath(16), 2.0),
        (QuantConfig.fp32(), 4.0), (QuantConfig(), 1.0 + 4.0 / 64),
    ])
    def test_widths(self, quant, width):
        name = "layers.0.attention.wq.weight"
        assert quant.bytes_per_element(quant.spec_for(name)) == width
        norm = quant.spec_for("norm.weight", ndim=1)
        assert norm is None and quant.bytes_per_element(norm) == 4.0

    def test_overrides_match_graph_and_checkpoint_names(self):
        pinned = QuantConfig(overrides=(("layers.1.*", None),))
        assert pinned.spec_for("L1.attention.wq.weight") is None
        assert pinned.spec_for("layers.1.attention.wq.weight") is None
        assert pinned.spec_for("L0.attention.wq.weight") == pinned.weights
        assert pinned.spec_for("output.weight") == pinned.logits

    def test_only_the_on_chip_datapath_streams_16_bits(self):
        QuantConfig.datapath(16)
        with pytest.raises(ValueError, match="4 or 8 bits"):
            QuantConfig(weights=QuantSpec(16, 64))

    def test_the_accelerator_needs_a_config(self):
        with pytest.raises(TypeError, match="QuantConfig"):
            AcceleratorConfig(quant=None)

    @pytest.mark.parametrize("quant", [
        QuantConfig.datapath(), QuantConfig.datapath(16), QuantConfig.fp32(),
        QuantConfig.from_mode("fp32", quant_kv=True),
        QuantConfig.from_mode("int4", quant_kv=True, group_size=32),
    ], ids=["w8", "w16", "fp32", "fp32-kv8", "int4-kv8"])
    def test_every_config_round_trips_through_dict(self, quant):
        assert QuantConfig.from_dict(quant.to_dict()) == quant

    def test_a_serving_sidecar_header_is_unchanged(self):
        assert "scales_on_chip" not in QuantConfig().to_dict()
        with pytest.raises(ValueError, match="weights entry"):
            QuantConfig.from_dict({"kv": None})

    def test_on_chip_groups_narrow_to_the_models_reduction_widths(self):
        stories = preset("stories15M")  # dim 288, hidden 768: gcd 96
        narrowed = QuantConfig.datapath().for_model(stories)
        assert narrowed.weights == narrowed.logits == QuantSpec(8, 32)
        assert math.gcd(stories.dim, stories.resolved_hidden_dim(), 64) == 32
        streamed = QuantConfig()
        assert streamed.for_model(stories) is streamed

    def test_engine_config_resolves_to_the_one_config(self):
        assert EngineConfig(model="test-small").quant_config() is None
        fp32 = EngineConfig(model="test-small", quant="fp32")
        assert fp32.quant_config() == QuantConfig.fp32()


#: A three-slot test-small step on two HBM channels per storage precision
#: and design point, as the stack priced it when three knobs chose a
#: precision (a datapath ``weight_bits`` of 4/8/16/32, an optional serving
#: ``QuantConfig`` superseding it): (precision, variant, cycles,
#: hbm_bytes, quant_saved_bytes, dequant_flops).
PINNED_STEPS = [
    ("w4", "full", 4289, 190828, 0, 0),
    ("w4", "unoptimized", 19913, 247468, 0, 0),
    ("w8", "full", 4748, 276428, 0, 0),
    ("w8", "unoptimized", 20587, 333068, 0, 0),
    ("w16", "full", 6090, 447628, 0, 0),
    ("w16", "unoptimized", 21938, 504268, 0, 0),
    ("fp32", "full", 8787, 790028, 0, 0),
    ("fp32", "unoptimized", 24640, 846668, 0, 0),
    ("int8-kv8", "full", 4784, 268360, 521668, 8602),
    ("int8-kv8", "unoptimized", 20565, 325000, 521668, 8602),
    ("int4-kv8", "full", 4382, 199240, 590788, 8602),
    ("int4-kv8", "unoptimized", 20025, 255880, 590788, 8602),
]

_PRECISIONS = {
    "w4": QuantConfig.datapath(4),
    "w8": QuantConfig.datapath(8),
    "w16": QuantConfig.datapath(16),
    "fp32": QuantConfig.fp32(),
    "int8-kv8": QuantConfig.from_mode("int8", quant_kv=True),
    "int4-kv8": QuantConfig.from_mode("int4", quant_kv=True),
}


@pytest.mark.parametrize("precision, variant, cycles, hbm_bytes, saved, dequant",
                         PINNED_STEPS, ids=[f"{p}-{v}" for p, v, *_ in PINNED_STEPS])
def test_every_precision_prices_as_before(precision, variant, cycles,
                                          hbm_bytes, saved, dequant):
    config = AcceleratorConfig.variant(variant, quant=_PRECISIONS[precision])
    result = StepCompiler(preset("test-small"), config,
                          u280(n_hbm_channels=2)).simulate_step(
        [1, 7, 20], [True, False, True])
    assert (result.cycles, result.counters.hbm_bytes,
            result.counters.quant_saved_bytes,
            result.counters.dequant_flops) == (cycles, hbm_bytes, saved, dequant)


@pytest.mark.parametrize("precision", sorted(_PRECISIONS))
@pytest.mark.parametrize("model", ["test-micro", "stories15M"])
def test_the_sidecar_and_the_accelerator_store_the_same_values(model, precision):
    """One rule resolves each tensor's spec (and, on chip, its narrowed
    group): the weights a converted checkpoint dequantises to are the
    ones the accelerator computes with."""
    config = preset(model)
    if model == "stories15M":
        config = config.replace(n_layers=1, vocab_size=512)
    checkpoint = synthesize_weights(config, seed=5)
    quant = _PRECISIONS[precision]
    accelerator = SpeedLLMAccelerator(checkpoint, AcceleratorConfig(quant=quant))
    computed = accelerator.functional_checkpoint().weights
    stored = {name: dequantize(tensor) if isinstance(tensor, QuantizedTensor)
              else np.asarray(tensor, dtype=np.float32)
              for name, tensor in quantize_checkpoint(checkpoint, quant).items()}
    assert list(computed) == list(stored)
    for name in stored:
        assert np.array_equal(computed[name], stored[name]), name
