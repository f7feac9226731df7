"""Quantisation configs must never share a compiled step.

A compiled program encodes the tile shapes and dequant cost of one
quantisation layout; serving a different layout's program would silently
charge the wrong bytes.  Each :class:`~repro.compile.pipeline.StepCompiler`
owns its compile cache and its config's one layout, so isolation rests on
two things these seeded property tests check: ``QuantConfig`` equality
tells layouts apart (``speedllm quantize``'s round trip compares configs
with ``==``), and compilers differing only in quantisation never hand out
one another's steps nor price differently from a fresh compiler.
"""

from __future__ import annotations

import random

import pytest

from repro.accel.config import AcceleratorConfig
from repro.compile import StepCompiler
from repro.fpga import u280
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


def _compiler(quant=None, **config):
    accel = AcceleratorConfig.variant("full", **config)
    if quant is not None:
        accel = accel.replace(quant=quant)
    return StepCompiler(preset("test-small"), accel, u280())


class TestQuantConfigIdentity:
    @pytest.mark.parametrize("seed", range(10))
    def test_equal_iff_same_layout(self, seed):
        rng = random.Random(6000 + seed)
        configs = [_random_quant(rng) for _ in range(12)]
        for a in configs:
            assert QuantConfig.from_dict(a.to_dict()) == a
            for b in configs:
                if a.to_dict() == b.to_dict():
                    assert a == b and hash(a) == hash(b)
                else:
                    assert a != b

    def test_configs_are_hashable(self):
        rng = random.Random(1)
        configs = [_random_quant(rng) for _ in range(32)]
        assert len(set(configs)) > 1
        assert all(config in set(configs) for config in configs)


class TestCompilersDifferingOnlyInQuant:
    @pytest.mark.parametrize("seed", range(6))
    def test_never_share_a_step(self, seed):
        rng = random.Random(7000 + seed)
        quants = [None] + [_random_quant(rng) for _ in range(8)]
        compilers = [_compiler(quant) for quant in quants]
        max_seq_len = compilers[0].model_config.max_seq_len
        for _ in range(3):
            contexts = tuple(rng.randrange(0, max_seq_len)
                             for _ in range(rng.randint(1, 4)))
            # Interleaved: every view compiles the composition in turn.
            steps = [compiler.compile_step(contexts) for compiler in compilers]
            assert len({id(step) for step in steps}) == len(compilers)
            results = [compiler.simulate(step)
                       for compiler, step in zip(compilers, steps)]
            for quant, result in zip(quants, results):
                fresh = _compiler(quant).simulate_step(contexts)
                assert result.cycles == fresh.cycles
                assert result.counters.hbm_bytes == fresh.counters.hbm_bytes

    def test_fp32_datapath_distinct_from_legacy_and_quant(self):
        legacy = _compiler().simulate_step((20, 40))
        fp32 = _compiler(QuantConfig.fp32()).simulate_step((20, 40))
        int8 = _compiler(QuantConfig(weights=QuantSpec(8, 64))).simulate_step(
            (20, 40))
        assert len({legacy.counters.hbm_bytes, fp32.counters.hbm_bytes,
                    int8.counters.hbm_bytes}) == 3
