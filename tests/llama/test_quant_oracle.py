"""The in-place quantiser against the one it replaced (``quant_oracle``).

Generated tensors are finite float32 of one to three dimensions, with a
last axis that is often not a whole number of groups, whole groups of
zeros, and magnitudes up to the float32 extremes (subnormals and the
largest finite values), at 4, 8 and 16 bits and group sizes 1–128.
Scales must be equal in value and dtype — compared as bytes, so even a
sign of zero may not differ — and so must codes and dequantised values
at 4 and 8 bits.  At 16 bits the oracle keeps only each code's low byte,
so there the codes must be int16, have that low byte and decode to within
half a scale.  Those tensors all fit one of the quantiser's blocks; a
second set spans two to four, with a ragged last block, zero and −0.0
groups at the block edges and a NaN that only a later block holds.  The
stories15M weights the accelerator computes with must be the oracle's
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.accel import accelerator as accelerator_module
from repro.accel.accelerator import SpeedLLMAccelerator
from repro.llama import preset, synthesize_weights
from repro.llama import quantization
from repro.llama.quantization import QuantSpec, dequantize, quantize

from . import quant_oracle

_F32 = np.finfo(np.float32)
_EXTREMES = [0.0, -0.0, float(_F32.smallest_subnormal),
             -float(_F32.smallest_subnormal), float(_F32.tiny),
             float(_F32.max), -float(_F32.max), 65504.0, -1e30]


def _assert_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _assert_within_half_a_scale(x: np.ndarray, got) -> None:
    """Every value of a group whose scale is a normal float32 decodes to
    within half a scale of itself, plus what ``x / scale`` may round by in
    float32 (under ``qmax * 2**-23`` of a scale).  A subnormal scale has
    fewer bits than the codes, so its groups are not held to it.  Computed
    in float64, where a code times its scale is exact."""
    spec = got.spec
    assert got.q.dtype == np.int16 and got.q.shape[-1] == spec.padded_elements(
        x.shape[-1])
    padded = np.zeros(got.q.shape)
    padded[..., :x.shape[-1]] = x
    grouped = (*got.scales.shape, spec.group_size)
    error = np.abs(got.q.reshape(grouped) * got.scales.astype(np.float64)[..., None]
                   - padded.reshape(grouped))
    bound = (0.5 + spec.qmax * 2.0 ** -23) * got.scales.astype(np.float64)
    normal = got.scales >= _F32.tiny
    assert (error.max(axis=-1)[normal] <= bound[normal]).all()


def _assert_matches_the_oracle(x: np.ndarray, spec: QuantSpec) -> None:
    got, want = quantize(x, spec), quant_oracle.quantize(x, spec)
    _assert_identical(got.scales, want.scales)
    assert got.original_shape == want.original_shape
    if spec.bits > 8:
        _assert_identical(got.q.astype(np.int8), want.q)   # the low byte
        _assert_within_half_a_scale(x, got)
        return
    _assert_identical(got.q, want.q)
    # Near the float32 maximum a code times its scale may overflow to inf;
    # it must do so in both.
    with np.errstate(over="ignore"):
        _assert_identical(dequantize(got), quant_oracle.dequantize(want))


@st.composite
def _cases(draw):
    """A finite float32 tensor and a spec to quantise it at."""
    spec = QuantSpec(bits=draw(st.sampled_from([4, 8, 16])),
                     group_size=draw(st.integers(1, 128)))
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    last = draw(st.one_of(
        st.integers(1, 3).map(lambda n: n * spec.group_size),   # whole groups
        st.integers(1, 300)))                                   # often padded
    elements = st.one_of(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        st.sampled_from(_EXTREMES))
    x = draw(arrays(np.float32, (*lead, last), elements=elements,
                    fill=st.sampled_from([0.0, 1.0, -float(_F32.max)])))
    # Whole groups of zeros along the last axis.
    for group in draw(st.lists(st.integers(0, spec.groups_for(last) - 1),
                               max_size=3)):
        x[..., group * spec.group_size:(group + 1) * spec.group_size] = 0.0
    return x, spec


def test_in_place_quantiser_matches_the_oracle():
    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(_cases())
    def check(case):
        x, spec = case
        before = x.copy()
        _assert_matches_the_oracle(x, spec)
        _assert_identical(x, before)   # the input is never written

    check()


@st.composite
def _multi_block_cases(draw):
    """A tensor spanning two to four quantiser blocks, the last one
    ragged, with zero (or −0.0) groups either side of every block edge."""
    spec = QuantSpec(bits=draw(st.sampled_from([4, 8, 16])),
                     group_size=draw(st.sampled_from([1, 7, 32, 64, 128])))
    row_groups = draw(st.integers(1, 6))
    last = row_groups * spec.group_size - draw(
        st.sampled_from([0, 0, spec.group_size // 2, spec.group_size - 1]))
    padded_last = spec.padded_elements(last)
    # A block holds rows of the padded last axis where it pads, whole
    # groups where it does not.
    block_row = padded_last if last != padded_last else spec.group_size
    per_block = quantization._BLOCK_BYTES // (4 * block_row)
    wanted = per_block * draw(st.integers(1, 3)) + draw(
        st.integers(1, per_block - 1))
    n_rows = -(-wanted * block_row // padded_last)
    block_rows = n_rows * padded_last // block_row
    assume(block_rows % per_block)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = 10.0 ** rng.integers(-40, 38, size=(n_rows, 1))
    x = (rng.standard_normal((n_rows, last)) * magnitude).astype(np.float32)
    zero = draw(st.sampled_from([0.0, -0.0]))
    for start in range(per_block, block_rows, per_block):
        first = start * block_row // spec.group_size
        for group in (first - 1, first):
            r, g = divmod(group, row_groups)
            x[r, g * spec.group_size:(g + 1) * spec.group_size] = zero
    return x, spec


def test_multi_block_quantiser_matches_the_oracle():
    @settings(derandomize=True, deadline=None, database=None,
              max_examples=40)
    @given(_multi_block_cases())
    def check(case):
        _assert_matches_the_oracle(*case)

    check()


def test_a_nan_only_a_later_block_holds_is_rejected():
    per_block = quantization._BLOCK_BYTES // 4
    for last in (64, 300):   # blocks of groups, and of padded rows
        x = np.ones((3 * per_block // last + 5, last), dtype=np.float32)
        x[-1, -1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            quantize(x, QuantSpec(bits=8, group_size=64))


def test_stories15m_functional_weights_match_the_oracle(monkeypatch):
    checkpoint = synthesize_weights(preset("stories15M"), seed=0)
    weights = SpeedLLMAccelerator(checkpoint)._functional_weights
    monkeypatch.setattr(accelerator_module, "quantize", quant_oracle.quantize)
    monkeypatch.setattr(accelerator_module, "dequantize", quant_oracle.dequantize)
    expected = SpeedLLMAccelerator(checkpoint)._functional_weights
    assert weights.keys() == expected.keys()
    quantised = [name for name in weights
                 if weights[name] is not checkpoint.weights[name]]
    assert quantised   # the default datapath quantises the weights
    for name, tensor in weights.items():
        _assert_identical(tensor, expected[name])
