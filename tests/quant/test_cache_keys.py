"""Quantisation configs must never collide in the compile cache.

A cached program encodes the tile shapes and dequant cost of one
quantisation layout; serving a different layout from the same cache
entry would silently charge the wrong bytes.  These seeded property
tests draw random pairs of quant configs and assert that *different*
configs always produce different compile signatures (and equal configs
produce equal ones).
"""

from __future__ import annotations

import random

import pytest

from repro.accel.config import AcceleratorConfig
from repro.compile import compile_signature
from repro.llama.config import preset
from repro.llama.quantization import QuantSpec
from repro.quant import QuantConfig


def _random_quant(rng: random.Random) -> QuantConfig:
    weights = QuantSpec(bits=rng.choice([4, 8]),
                        group_size=rng.choice([16, 32, 64, 128]))
    kv = (QuantSpec(bits=8, group_size=rng.choice([32, 64]))
          if rng.random() < 0.5 else None)
    logits = rng.choice([
        None,
        weights,
        QuantSpec(bits=8, group_size=weights.group_size),
    ])
    overrides = ()
    if rng.random() < 0.3:
        overrides = (("layers.0.wq.weight",
                      QuantSpec(bits=8, group_size=32)),)
    return QuantConfig(weights=weights, kv=kv, logits=logits,
                       overrides=overrides)


class TestQuantSignatureProperty:
    @pytest.mark.parametrize("seed", range(10))
    def test_distinct_configs_distinct_signatures(self, seed):
        rng = random.Random(6000 + seed)
        configs = [_random_quant(rng) for _ in range(12)]
        for a in configs:
            for b in configs:
                if a == b:
                    assert a.signature() == b.signature()
                else:
                    assert a.signature() != b.signature()

    def test_signature_is_hashable(self):
        rng = random.Random(1)
        assert len({_random_quant(rng).signature()
                    for _ in range(32)}) > 1


class TestCompileSignatureQuant:
    @pytest.mark.parametrize("seed", range(6))
    def test_accel_configs_differing_only_in_quant_never_collide(self, seed):
        rng = random.Random(7000 + seed)
        model = preset("test-small")
        quants = [None] + [_random_quant(rng) for _ in range(8)]
        signatures = {}
        for quant in quants:
            accel = AcceleratorConfig.variant("full").replace(quant=quant)
            signature = compile_signature(model, accel)
            for other_quant, other_sig in signatures.items():
                if other_quant != (quant.signature()
                                   if quant is not None else None):
                    assert other_sig != signature
            signatures[quant.signature()
                       if quant is not None else None] = signature

    def test_fp32_datapath_distinct_from_legacy_and_quant(self):
        model = preset("test-small")
        legacy = compile_signature(model, AcceleratorConfig.variant("full"))
        fp32 = compile_signature(
            model, AcceleratorConfig.variant("full").replace(weight_bits=32))
        int8 = compile_signature(
            model, AcceleratorConfig.variant("full").replace(
                quant=QuantConfig(weights=QuantSpec(8, 64))))
        assert len({legacy, fp32, int8}) == 3
