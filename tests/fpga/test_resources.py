"""Tests for repro.fpga.resources."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.resources import ResourceVector, UtilizationReport

vectors = st.builds(
    ResourceVector,
    lut=st.integers(0, 10_000),
    ff=st.integers(0, 10_000),
    dsp=st.integers(0, 1_000),
    bram_36k=st.integers(0, 500),
    uram=st.integers(0, 200),
)


class TestResourceVector:
    def test_addition_and_subtraction(self):
        a = ResourceVector(lut=10, dsp=2)
        b = ResourceVector(lut=5, ff=3)
        assert (a + b).lut == 15
        assert (a + b).ff == 3
        assert (a + b - b) == a

    def test_fits_in(self):
        small = ResourceVector(lut=10, dsp=5)
        big = ResourceVector(lut=100, dsp=5, ff=1)
        assert small.fits_in(big)
        assert not big.fits_in(small)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(lut=-1)

    def test_memory_capacity(self):
        vec = ResourceVector(bram_36k=2, uram=1)
        assert vec.bram_bytes == 2 * 36 * 1024 // 8
        assert vec.uram_bytes == 288 * 1024 // 8
        assert vec.onchip_bytes == vec.bram_bytes + vec.uram_bytes

    def test_as_dict_roundtrip(self):
        vec = ResourceVector(lut=1, ff=2, dsp=3, bram_36k=4, uram=5)
        assert ResourceVector(**vec.as_dict()) == vec

    @settings(max_examples=30, deadline=None)
    @given(vectors, vectors)
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @settings(max_examples=30, deadline=None)
    @given(vectors, vectors)
    def test_sum_always_fits_its_parts(self, a, b):
        total = a + b
        assert a.fits_in(total) and b.fits_in(total)


class TestUtilizationReport:
    def test_fractions(self):
        report = UtilizationReport(
            total=ResourceVector(lut=100, dsp=10, ff=1, bram_36k=1, uram=1),
            used=ResourceVector(lut=25, dsp=5),
        )
        assert report.fraction("lut") == 0.25
        assert report.fraction("dsp") == 0.5

    def test_zero_total_fraction(self):
        report = UtilizationReport(total=ResourceVector(), used=ResourceVector())
        assert report.fraction("dsp") == 0.0

    def test_table_rendering(self):
        report = UtilizationReport(
            total=ResourceVector(lut=100, dsp=10),
            used=ResourceVector(lut=25, dsp=5),
        )
        table = report.as_table()
        assert any("lut" in line for line in table)
        assert any("50.0%" in line for line in table)
