"""Tests for repro.llama.quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.llama import preset
from repro.llama.kv_cache import KVCache
from repro.llama.quantization import INT8, QuantSpec, dequantize, quantize

INT4 = QuantSpec(bits=4, group_size=64)


def quantization_error(x, spec=INT8):
    """Relative L2 error of a quantise/dequantise round trip."""
    return float(np.linalg.norm(x - dequantize(quantize(x, spec)))
                 / np.linalg.norm(x))


class TestQuantSpec:
    def test_qmax(self):
        assert INT8.qmax == 127
        assert INT4.qmax == 7

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=3)

    def test_invalid_group(self):
        with pytest.raises(ValueError):
            QuantSpec(group_size=0)

    def test_bytes_per_element_includes_scale(self):
        spec = QuantSpec(bits=8, group_size=64)
        assert spec.bytes_per_element == pytest.approx(1.0 + 4.0 / 64)

    def test_storage_bytes(self):
        spec = QuantSpec(bits=8, group_size=32)
        assert spec.storage_bytes(64) == 64 + 2 * 4

    def test_storage_bytes_pads_trailing_group(self):
        spec = QuantSpec(group_size=32)
        # 33 elements occupy two padded groups: 64 int8 bytes + 2 scales.
        assert spec.storage_bytes(33) == 64 + 2 * 4

    def test_int4_storage_bytes_packs_two_per_byte(self):
        spec = QuantSpec(bits=4, group_size=32)
        assert spec.storage_bytes(64) == 32 + 2 * 4


class TestQuantizeDequantize:
    def test_roundtrip_error_small_int8(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 128)).astype(np.float32)
        assert quantization_error(x, INT8) < 0.01

    def test_int4_error_larger_than_int8(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(32, 128)).astype(np.float32)
        assert quantization_error(x, INT4) > quantization_error(x, INT8)

    def test_all_zero_tensor(self):
        x = np.zeros((4, 64), dtype=np.float32)
        qt = quantize(x)
        assert np.array_equal(dequantize(qt), x)

    def test_preserves_shape_and_metadata(self):
        x = np.ones((3, 2, 64), dtype=np.float32)
        qt = quantize(x)
        assert qt.shape == (3, 2, 64)
        assert qt.q.shape == (3, 2, 64)
        assert qt.scales.shape == (3, 2, 1)
        assert dequantize(qt).shape == x.shape

    def test_values_clipped_to_qmax(self):
        x = np.linspace(-10, 10, 64, dtype=np.float32).reshape(1, 64)
        qt = quantize(x, INT8)
        assert qt.q.max() <= 127 and qt.q.min() >= -127

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.float32(3.0))

    def test_indivisible_axis_pads_trailing_group(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 65)).astype(np.float32)
        qt = quantize(x, QuantSpec(group_size=64))
        assert qt.q.shape == (2, 128)
        assert qt.scales.shape == (2, 2)
        recon = dequantize(qt)
        assert recon.shape == (2, 65)
        assert np.linalg.norm(recon - x) / np.linalg.norm(x) < 0.01

    @pytest.mark.parametrize("shape", [(65,), (2, 65), (3, 2, 33), (2, 64)])
    def test_padding_is_trailing_zeros(self, shape):
        x = np.random.default_rng(5).normal(size=shape).astype(np.float32)
        qt = quantize(x, QuantSpec(group_size=64))
        padded = qt.q.shape[-1]
        assert padded % 64 == 0 and not qt.q[..., shape[-1]:].any()
        widths = [(0, 0)] * (x.ndim - 1) + [(0, padded - shape[-1])]
        assert np.array_equal(qt.q, quantize(np.pad(x, widths),
                                             QuantSpec(group_size=64)).q)

    def test_nbytes_matches_spec(self):
        x = np.ones((4, 128), dtype=np.float32)
        qt = quantize(x, INT8)
        assert qt.nbytes == INT8.storage_bytes(4 * 128)

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float32, (4, 64),
                  elements=st.floats(-100, 100, width=32, allow_nan=False)))
    def test_roundtrip_bounded_by_group_resolution(self, x):
        """Property: per-element error is bounded by the group's scale/2-ish."""
        qt = quantize(x, INT8)
        recon = dequantize(qt)
        grouped = x.reshape(4, 1, 64)
        scales = np.abs(grouped).max(axis=-1) / 127.0
        bound = np.repeat(scales, 64, axis=-1).reshape(4, 64) * 0.51 + 1e-6
        assert np.all(np.abs(recon - x) <= bound)


class TestNonFinite:
    """A NaN or an infinity has no integer code: quantising one raises,
    whether it sits in a weight tensor or in a key/value pair."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_weight_tensor(self, bad):
        x = np.random.default_rng(3).normal(size=(8, 100)).astype(np.float32)
        x[5, 77] = bad   # in the padded last group
        with pytest.raises(ValueError, match="non-finite"):
            quantize(x, QuantSpec(group_size=64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("row", ["key", "value"])
    def test_kv_pair(self, bad, row):
        """A quantising cache's write refuses the pair before storing
        either row."""
        cache = KVCache(preset("test-small"),
                        quant=QuantSpec(bits=8, group_size=16))  # kv_dim 32
        rng = np.random.default_rng(4)
        key, value = rng.normal(size=(2, 32)).astype(np.float32)
        (key if row == "key" else value)[9] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cache.append(0, key, value, pos=0)
        assert not cache.storage.keys.any() and not cache.storage.values.any()
