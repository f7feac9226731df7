"""Seeded property tests over the quantisation primitives.

Satellite coverage for the quantised serving subsystem: the
quantise/dequantise round-trip error bound and INT4 pack/unpack
byte-exactness hold over a seeded sweep of random shapes, group sizes and value distributions —
not just the single fixtures the unit tests pin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llama.quantization import (
    QuantSpec,
    dequantize,
    pack_int4,
    quantize,
    unpack_int4,
)


def _random_matrix(rng, rows, cols, scale):
    return (rng.normal(0.0, scale, size=(rows, cols))
            .astype(np.float32))


class TestRoundTripBound:
    """|dequant(quant(x)) - x| <= scale/2 per group, any shape/group."""

    @pytest.mark.parametrize("seed", range(8))
    def test_error_bounded_by_half_group_scale(self, seed):
        rng = np.random.default_rng(1000 + seed)
        bits = int(rng.choice([4, 8]))
        group = int(rng.choice([8, 16, 32, 64]))
        rows = int(rng.integers(1, 12))
        # Deliberately include group-indivisible column counts: the
        # trailing group is padded, never rejected.
        cols = int(rng.integers(1, 4 * group + 3))
        x = _random_matrix(rng, rows, cols, scale=float(rng.uniform(0.01, 3)))
        spec = QuantSpec(bits=bits, group_size=group)
        recovered = dequantize(quantize(x, spec))
        assert recovered.shape == x.shape
        qmax = float(2 ** (bits - 1) - 1)
        for row in range(rows):
            for start in range(0, cols, group):
                chunk = x[row, start:start + group]
                bound = np.abs(chunk).max() / qmax / 2 + 1e-7
                err = np.abs(recovered[row, start:start + group] - chunk)
                assert err.max() <= bound

    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_deterministic(self, seed):
        rng = np.random.default_rng(2000 + seed)
        x = _random_matrix(rng, 5, 70, scale=1.0)
        spec = QuantSpec(bits=8, group_size=32)
        a, b = quantize(x, spec), quantize(x, spec)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.scales, b.scales)


class TestInt4PackUnpack:
    """Packing two nibbles per byte is lossless for any length/parity."""

    @pytest.mark.parametrize("seed", range(8))
    def test_byte_exact_roundtrip(self, seed):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 257))
        values = rng.integers(-8, 8, size=n).astype(np.int8)
        packed = pack_int4(values)
        assert packed.dtype == np.uint8
        assert packed.size == (n + 1) // 2
        assert np.array_equal(unpack_int4(packed, n), values)

    def test_packed_bytes_are_pure_function_of_values(self):
        values = np.array([-8, -1, 0, 7, 3], dtype=np.int8)
        assert np.array_equal(pack_int4(values), pack_int4(values.copy()))


class TestDequantizedProductTolerance:
    """The datapath multiplies by dequantised weights: close to fp32."""

    @pytest.mark.parametrize("seed", range(3))
    def test_close_to_full_precision_product(self, seed):
        rng = np.random.default_rng(5000 + seed)
        dense = _random_matrix(rng, 16, 128, 0.2)
        x = rng.normal(0.0, 1.0, size=128).astype(np.float32)
        got = dequantize(quantize(dense, QuantSpec(8, 32))) @ x
        want = dense @ x
        # int8 group quantisation keeps the product within ~1% of the
        # fp32 result for well-scaled activations.
        err = np.abs(got - want).max()
        assert err <= 0.01 * max(1.0, np.abs(want).max())
