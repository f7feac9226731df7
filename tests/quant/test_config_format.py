"""QuantConfig resolution, checkpoint conversion and the .slq sidecar."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.accel import AcceleratorConfig, SpeedLLMAccelerator
from repro.api import EngineConfig
from repro.api.errors import FrontendError
from repro.llama.quantization import QuantSpec, QuantizedTensor
from repro.quant import (
    QuantConfig,
    canonical_tensor_name,
    convert_to_sidecar,
    load_quantized,
    quantize_checkpoint,
    resolve_quant,
    save_quantized,
)


class TestResolveQuant:
    def test_none_passthrough(self):
        assert resolve_quant(None) is None

    def test_int8_mode(self):
        config = resolve_quant("int8", group_size=32)
        assert config.weights == QuantSpec(bits=8, group_size=32)
        assert config.kv is None

    def test_int4_mode_keeps_int8_head(self):
        config = resolve_quant("int4", group_size=64)
        assert config.weights.bits == 4
        assert config.logits is not None and config.logits.bits == 8

    def test_quant_kv_records_int8_kv_spec(self):
        config = resolve_quant("int8", quant_kv=True)
        assert config.kv is not None and config.kv.bits == 8

    def test_fp32_logits(self):
        config = resolve_quant("int8", fp32_logits=True)
        assert config.logits is None

    def test_explicit_config_passthrough(self):
        explicit = QuantConfig(weights=QuantSpec(8, 16))
        assert resolve_quant(explicit) is explicit

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_quant("int2")

    def test_roundtrips_through_dict(self):
        config = resolve_quant("int4", group_size=32, quant_kv=True)
        assert QuantConfig.from_dict(config.to_dict()) == config

    def test_canonical_layer_names(self):
        assert canonical_tensor_name("L3.wq.weight").startswith("layers.3.")


class TestEngineConfigQuant:
    def test_mode_string_resolves(self):
        config = EngineConfig(model="test-small", quant="int8",
                              quant_kv=True, quant_group=32)
        quant = config.quant_config()
        assert quant.weights.group_size == 32 and quant.kv is not None

    def test_fp32_mode_resolves_to_none_but_widens_datapath(self):
        """"fp32" is a config that quantises nothing, and it is what the
        accelerator stores its weights at."""
        config = EngineConfig(model="test-small", quant="fp32")
        assert config.quant_config() == QuantConfig.fp32()
        llm = config.build_llm()
        assert llm.accelerator.config.quant == QuantConfig.fp32()

    def test_quant_kv_without_quant_rejected(self):
        with pytest.raises(FrontendError):
            EngineConfig(model="test-small", quant_kv=True)

    def test_quant_kv_with_fp32_rejected(self):
        with pytest.raises(FrontendError):
            EngineConfig(model="test-small", quant="fp32", quant_kv=True)

    def test_bad_mode_rejected_at_construction(self):
        with pytest.raises(FrontendError):
            EngineConfig(model="test-small", quant="int3")

    def test_bad_hbm_channels_rejected(self):
        with pytest.raises(FrontendError):
            EngineConfig(model="test-small", hbm_channels=0)

    def test_hbm_channels_reach_platform(self):
        llm = EngineConfig(model="test-small", hbm_channels=4).build_llm()
        assert llm.platform.hbm.n_channels == 4

    def test_quant_reaches_accelerator_and_engine_report(self):
        config = EngineConfig(model="test-small", quant="int8",
                              quant_kv=True)
        engine = config.build_engine()
        assert engine.quant is not None
        assert engine.report().quant == engine.quant.label


class TestConvertAccounting:
    def test_quantized_checkpoint_saves_bytes(self, small_checkpoint):
        quant = resolve_quant("int8", group_size=64)
        converted = quantize_checkpoint(small_checkpoint, quant)
        assert converted.nbytes < converted.fp32_nbytes
        assert converted.bytes_saved == (converted.fp32_nbytes
                                         - converted.nbytes)
        assert converted.n_quantized > 0

    def test_norm_scales_stay_fp32(self, small_checkpoint):
        converted = quantize_checkpoint(small_checkpoint,
                                        resolve_quant("int8"))
        for name, tensor in converted.items():
            if name.endswith("norm.weight"):
                assert isinstance(tensor, np.ndarray)

    def test_int4_smaller_than_int8(self, small_checkpoint):
        int8 = quantize_checkpoint(small_checkpoint, resolve_quant("int8"))
        int4 = quantize_checkpoint(small_checkpoint, resolve_quant("int4"))
        assert int4.nbytes < int8.nbytes

    def test_functional_weights_carry_quant_error(self, small_checkpoint):
        accel = SpeedLLMAccelerator(
            small_checkpoint, AcceleratorConfig(quant=resolve_quant("int8")))
        functional = accel._functional_weights
        reference = dict(small_checkpoint.weights)
        drift = max(
            float(np.abs(functional[name] - reference[name]).max())
            for name in reference
        )
        assert 0 < drift < 0.1


class TestSidecarFormat:
    def test_convert_to_sidecar_verifies_the_reload(self, tmp_path,
                                                    small_checkpoint):
        quant = resolve_quant("int8", quant_kv=True)
        summary = convert_to_sidecar(small_checkpoint, quant,
                                     tmp_path / "m.slq")
        assert summary["schema"] == "QUANTIZE_v1"
        assert summary["roundtrip"] == "pass"
        assert summary["file_bytes"] == (tmp_path / "m.slq").stat().st_size
        assert load_quantized(tmp_path / "m.slq").quant == quant

    def test_convert_to_sidecar_fails_a_drifted_reload(self, tmp_path,
                                                      small_checkpoint,
                                                      monkeypatch):
        from repro.quant import format as slq

        real = slq.load_quantized

        def drifted(path):
            return dataclasses.replace(real(path),
                                       quant=resolve_quant("int8",
                                                           group_size=32))

        monkeypatch.setattr(slq, "load_quantized", drifted)
        summary = convert_to_sidecar(small_checkpoint, resolve_quant("int8"),
                                     tmp_path / "m.slq")
        assert summary["roundtrip"] == "fail"

    def test_roundtrip_is_value_exact(self, tmp_path, small_checkpoint):
        quant = resolve_quant("int4", group_size=32, quant_kv=True)
        converted = quantize_checkpoint(small_checkpoint, quant)
        path = save_quantized(converted, tmp_path / "model.slq")
        reloaded = load_quantized(path)
        assert reloaded.quant == converted.quant
        assert reloaded.config.to_dict() == converted.config.to_dict()
        for (name, a), (_, b) in zip(converted.items(), reloaded.items()):
            if isinstance(a, QuantizedTensor):
                assert isinstance(b, QuantizedTensor)
                assert np.array_equal(a.q, b.q)
                assert np.array_equal(a.scales, b.scales)
                assert a.spec == b.spec
            else:
                assert np.array_equal(a, b)

    def test_sidecar_never_materialises_fp32_weights(self, tmp_path,
                                                     small_checkpoint):
        converted = quantize_checkpoint(small_checkpoint,
                                        resolve_quant("int8"))
        path = save_quantized(converted, tmp_path / "model.slq")
        # On-disk size tracks the quantised footprint, not fp32: the
        # header plus payloads must stay well under half the fp32 bytes.
        assert path.stat().st_size < converted.fp32_nbytes // 2

    def test_corrupt_magic_rejected(self, tmp_path, small_checkpoint):
        converted = quantize_checkpoint(small_checkpoint,
                                        resolve_quant("int8"))
        path = save_quantized(converted, tmp_path / "model.slq")
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_quantized(path)

    def test_codes_wider_than_a_byte_are_refused_both_ways(self, tmp_path,
                                                           small_checkpoint):
        """The sidecar stores int8 or packed int4 codes: writing a 16-bit
        tensor raises naming its spec, and a header claiming one raises
        naming the file rather than reading its codes as int8."""
        wide = quantize_checkpoint(small_checkpoint, QuantConfig.datapath(16))
        with pytest.raises(ValueError, match=r"QuantSpec\(bits=16, group_size="):
            save_quantized(wide, tmp_path / "wide.slq")
        converted = quantize_checkpoint(small_checkpoint, resolve_quant("int8"))
        raw = save_quantized(converted, tmp_path / "model.slq").read_bytes()
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:header_end])
        next(entry for entry in header["tensors"] if entry["spec"])["spec"]["bits"] = 16
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        path = tmp_path / "claims-16.slq"
        path.write_bytes(raw[:8] + len(encoded).to_bytes(4, "little") + encoded
                         + raw[header_end:])
        with pytest.raises(ValueError, match="claims-16.slq.*byte.*bits=16"):
            load_quantized(path)

    def test_every_corrupted_copy_loads_or_names_the_file(self, tmp_path,
                                                          small_checkpoint):
        """A seeded corruptor: truncated copies and copies with one
        preamble or header byte changed.  Each either loads or raises a
        ``ValueError`` naming the file and a byte offset — never a decode,
        JSON, key or shape error that says neither."""
        converted = quantize_checkpoint(small_checkpoint,
                                        resolve_quant("int8", quant_kv=True))
        raw = save_quantized(converted, tmp_path / "model.slq").read_bytes()
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        rng = np.random.default_rng(0)
        copies = [raw[:int(rng.integers(0, header_end))] for _ in range(20)]
        copies += [raw[:int(rng.integers(header_end, len(raw)))] for _ in range(20)]
        for _ in range(40):
            flipped = bytearray(raw)
            flipped[int(rng.integers(0, header_end))] ^= int(rng.integers(1, 256))
            copies.append(bytes(flipped))
        refused = 0
        for i, corrupted in enumerate(copies):
            path = tmp_path / f"corrupt{i}.slq"
            path.write_bytes(corrupted)
            try:
                load_quantized(path)
            except ValueError as exc:
                assert str(path) in str(exc) and "byte" in str(exc), exc
                refused += 1
        assert refused >= 40
