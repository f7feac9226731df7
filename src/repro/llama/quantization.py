"""Group quantization used by the accelerator datapath.

The SpeedLLM accelerator streams weights from HBM into the Matrix
Processing Engine as narrow integers (int8 by default; int4 is also
supported for scale studies).  This module implements symmetric
group-wise quantization identical in spirit to the ``Q8_0`` format used by
``llama2.c``: each contiguous group of ``group_size`` values shares one
float32 scale, values are stored as signed integers in
``[-qmax, qmax]``.

All functions are vectorised NumPy and operate on the flattened last axis
of the input tensor.  A last axis that is not divisible by the group size
is padded with zeros up to the next group boundary (real checkpoint
shapes — e.g. hidden dims like 176 — are rarely multiples of 64); the
padding never affects the per-group scales (zeros have zero magnitude)
and :func:`dequantize` slices it back off.  A NaN or an infinity has no
integer code: :func:`quantize` rejects it with ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "QuantSpec",
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "pack_int4",
    "unpack_int4",
    "INT8",
]


@dataclass(frozen=True)
class QuantSpec:
    """Describes a symmetric group quantization format.

    Attributes
    ----------
    bits:
        Bit width of the stored integers (4, 8 or 16).
    group_size:
        Number of consecutive elements sharing one scale factor.
    """

    bits: int = 8
    group_size: int = 64

    def __post_init__(self) -> None:
        if self.bits not in (4, 8, 16):
            raise ValueError(f"unsupported bit width: {self.bits}")
        if self.group_size <= 0:
            raise ValueError(f"group_size must be positive, got {self.group_size}")

    @property
    def qmax(self) -> int:
        """Largest representable magnitude."""
        return (1 << (self.bits - 1)) - 1

    @property
    def bytes_per_element(self) -> float:
        """Storage cost per element including the amortised scale."""
        return self.bits / 8.0 + 4.0 / self.group_size

    def padded_elements(self, n_elements: int) -> int:
        """``n_elements`` rounded up to a whole number of groups."""
        if n_elements < 0:
            raise ValueError(f"element count must be >= 0, got {n_elements}")
        return self.groups_for(n_elements) * self.group_size

    def groups_for(self, n_elements: int) -> int:
        """Number of (possibly zero-padded) groups covering ``n_elements``."""
        if n_elements < 0:
            raise ValueError(f"element count must be >= 0, got {n_elements}")
        return -(-n_elements // self.group_size)

    def storage_bytes(self, n_elements: int) -> int:
        """Total bytes needed to store ``n_elements`` quantised values.

        Trailing partial groups are stored padded to the group boundary,
        so the integer payload covers ``padded_elements`` values and one
        float32 scale is charged per group.
        """
        padded = self.padded_elements(n_elements)
        int_bytes = (padded * self.bits + 7) // 8
        return int_bytes + 4 * self.groups_for(n_elements)


INT8 = QuantSpec(bits=8, group_size=64)


@dataclass
class QuantizedTensor:
    """A tensor stored as group-quantised integers plus per-group scales.

    ``q`` has the original shape with the last axis padded up to a whole
    number of groups, as ``int8`` (int4 codes too) or, above 8 bits,
    ``int16``; ``scales`` has the original shape with the last axis
    replaced by the group count.
    """

    q: np.ndarray
    scales: np.ndarray
    spec: QuantSpec
    original_shape: Tuple[int, ...]

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.original_shape

    @property
    def nbytes(self) -> int:
        """Logical storage footprint in bytes (per the quantisation spec)."""
        n = int(np.prod(self.original_shape))
        return self.spec.storage_bytes(n)


#: Largest block of groups :func:`quantize` runs through its float32 work
#: buffer: small enough to stay in L2 while every pass over it runs.  On
#: a 2-vCPU Xeon (4 MiB L2) the stories15M weights quantise+dequantise in
#: a median 119, 112, 109 and 107 ms at 64 KiB, 128 KiB, 256 KiB and
#: 1 MiB blocks, and 148 ms unblocked.
_BLOCK_BYTES = 256 * 1024

_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _quantize_groups(groups: np.ndarray, work: np.ndarray,
                     scales: np.ndarray, codes: np.ndarray, qmax: int) -> None:
    """Quantise ``groups`` (``[n, group_size]``) into ``scales`` and
    ``codes`` through ``work``, a float32 buffer of the same shape."""
    absmax = np.maximum.reduce(np.abs(groups, out=work), axis=-1)
    # NaN and ±inf reach the absmax, and its maximum with them.
    if not np.maximum.reduce(absmax) <= _FLOAT32_MAX:
        raise ValueError("cannot quantise non-finite values (NaN or inf)")
    np.divide(absmax, float(qmax), out=scales)
    # Avoid division by zero for all-zero groups (their scale 0 becomes
    # 1): scale 0 encodes to 0.
    safe_scales = scales + (scales == 0.0)
    # Rounded half to even and clipped in place, the values are whole
    # numbers in [-qmax, qmax], so one cast stores them.
    np.divide(groups, safe_scales[:, None], out=work)
    np.rint(work, out=work)
    np.maximum(work, -qmax, out=work)
    np.minimum(work, qmax, out=work)
    np.copyto(codes, work, casting="unsafe")


def quantize(x: np.ndarray, spec: QuantSpec = INT8) -> QuantizedTensor:
    """Quantise ``x`` symmetrically with per-group scales along the last axis.

    Parameters
    ----------
    x:
        Input tensor of any shape.  A last axis that is not divisible by
        ``spec.group_size`` is zero-padded to the next group boundary
        (padding zeros never affect the absmax scales).
    spec:
        Quantisation format.

    Returns
    -------
    QuantizedTensor
        The quantised representation.

    Raises
    ------
    ValueError
        If ``x`` is a scalar or holds a NaN or an infinity: a non-finite
        value has no integer code.  NaN and ±inf reach the per-group
        absmax, so the check reads one value per group.

    The groups run in blocks of at most ``_BLOCK_BYTES`` through one
    reused work buffer, so each block is read from memory once.  Where
    the last axis pads, a block is whole rows (at least one), copied into
    a zero-padded staging buffer first.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim == 0:
        raise ValueError("cannot quantise a scalar")
    group, last = spec.group_size, x.shape[-1]
    padded_last = spec.padded_elements(last)
    row_groups = padded_last // group
    pads = padded_last != last
    # Blocks are of rows of whole groups: the padded last axis, or one
    # group where nothing pads.
    rows = x.reshape(-1, last) if pads else x.reshape(-1, group)
    per_row = row_groups if pads else 1
    step = max(1, _BLOCK_BYTES // (4 * group * per_row))
    block_rows = min(step, len(rows))
    codes = np.empty((len(rows) * per_row, group),
                     dtype=np.int16 if spec.bits > 8 else np.int8)
    scales = np.empty(len(codes), dtype=np.float32)
    work = np.empty((block_rows * per_row, group), dtype=np.float32)
    staging = (np.zeros((block_rows, padded_last), dtype=np.float32)
               if pads else None)
    for start in range(0, len(rows), step):
        groups = rows[start:start + step]
        if pads:
            staging[:len(groups), :last] = groups
            groups = staging[:len(groups)].reshape(-1, group)
        first = start * per_row
        _quantize_groups(groups, work[:len(groups)],
                         scales[first:first + len(groups)],
                         codes[first:first + len(groups)], spec.qmax)
    return QuantizedTensor(
        q=codes.reshape(*x.shape[:-1], padded_last),
        scales=scales.reshape(*x.shape[:-1], row_groups),
        spec=spec,
        original_shape=tuple(x.shape),
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the float32 tensor from its quantised form."""
    spec = qt.spec
    last = qt.original_shape[-1]
    padded_last = spec.padded_elements(last)
    grouped = qt.q.reshape(
        *qt.original_shape[:-1], padded_last // spec.group_size, spec.group_size
    )
    out = np.multiply(grouped, qt.scales[..., None], dtype=np.float32)
    out = out.reshape(*qt.original_shape[:-1], padded_last)[..., :last]
    return np.ascontiguousarray(out)


def pack_int4(q: np.ndarray) -> np.ndarray:
    """Pack int4 values (range ``[-8, 7]``) two per byte.

    Values are stored offset-binary (``value + 8``) with the even index in
    the low nibble; an odd-length input is padded with the encoding of 0.
    The round trip through :func:`unpack_int4` is byte-exact.
    """
    q = np.asarray(q, dtype=np.int8).reshape(-1)
    if q.size and (q.min() < -8 or q.max() > 7):
        raise ValueError("int4 values must lie in [-8, 7]")
    nibbles = (q.astype(np.int16) + 8).astype(np.uint8)
    if nibbles.size % 2:
        nibbles = np.concatenate([nibbles, np.uint8([8])])
    pairs = nibbles.reshape(-1, 2)
    return (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8)


def unpack_int4(packed: np.ndarray, n_values: int) -> np.ndarray:
    """Inverse of :func:`pack_int4`: recover ``n_values`` int8 values."""
    packed = np.asarray(packed, dtype=np.uint8).reshape(-1)
    if n_values < 0:
        raise ValueError("n_values must be >= 0")
    if n_values > 2 * packed.size:
        raise ValueError(
            f"{packed.size} packed bytes hold at most {2 * packed.size} "
            f"values, asked for {n_values}"
        )
    lo = (packed & 0x0F).astype(np.int16) - 8
    hi = (packed >> 4).astype(np.int16) - 8
    values = np.empty(2 * packed.size, dtype=np.int8)
    values[0::2] = lo.astype(np.int8)
    values[1::2] = hi.astype(np.int8)
    return values[:n_values]
