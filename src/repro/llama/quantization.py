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
and :func:`dequantize` slices it back off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "QuantSpec",
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "pack_int4",
    "unpack_int4",
    "quantized_matvec",
    "quantization_error",
    "INT8",
    "INT4",
]


@dataclass(frozen=True)
class QuantSpec:
    """Describes a symmetric group quantization format.

    Attributes
    ----------
    bits:
        Bit width of the stored integers (4 or 8).
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
INT4 = QuantSpec(bits=4, group_size=64)


@dataclass
class QuantizedTensor:
    """A tensor stored as group-quantised integers plus per-group scales.

    ``q`` has the original shape with the last axis padded up to a whole
    number of groups (stored as ``int8`` regardless of the logical bit
    width for simplicity); ``scales`` has the original shape with the
    last axis replaced by the group count.
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

    def dequantize(self) -> np.ndarray:
        """Reconstruct the float32 tensor."""
        return dequantize(self)


def _pad_last_axis(x: np.ndarray, padded_last: int) -> np.ndarray:
    """Zero-pad the last axis of ``x`` up to ``padded_last`` elements."""
    last = x.shape[-1]
    if last == padded_last:
        return x
    padded = np.zeros((*x.shape[:-1], padded_last), dtype=x.dtype)
    padded[..., :last] = x
    return padded


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
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim == 0:
        raise ValueError("cannot quantise a scalar")
    last = x.shape[-1]
    padded_last = spec.padded_elements(last)
    padded = _pad_last_axis(x, padded_last)
    grouped = padded.reshape(
        *x.shape[:-1], padded_last // spec.group_size, spec.group_size
    )
    absmax = np.abs(grouped).max(axis=-1)
    scales = absmax / float(spec.qmax)
    # Avoid division by zero for all-zero groups: scale 0 encodes to 0.
    safe_scales = np.where(scales == 0.0, 1.0, scales)
    q = np.round(grouped / safe_scales[..., None]).astype(np.int32)
    q = np.clip(q, -spec.qmax, spec.qmax).astype(np.int8)
    return QuantizedTensor(
        q=q.reshape(*x.shape[:-1], padded_last),
        scales=scales.astype(np.float32),
        spec=spec,
        original_shape=tuple(x.shape),
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the float32 tensor from its quantised form."""
    spec = qt.spec
    last = qt.original_shape[-1]
    padded_last = spec.padded_elements(last)
    grouped = qt.q.astype(np.float32).reshape(
        *qt.original_shape[:-1], padded_last // spec.group_size, spec.group_size
    )
    out = grouped * qt.scales[..., None]
    out = out.reshape(*qt.original_shape[:-1], padded_last)[..., :last]
    return np.ascontiguousarray(out, dtype=np.float32)


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


def quantized_matvec(w: QuantizedTensor, x: np.ndarray) -> np.ndarray:
    """Compute ``w @ x`` where ``w`` is a quantised (out, in) matrix.

    The activation vector ``x`` stays in float32 (weight-only
    quantisation), matching the accelerator datapath: the MPE accumulates
    each group's integer weights against the activations and the SFU
    applies the group scale at the accumulator, so no dequantised weight
    matrix is ever materialised.
    """
    if len(w.original_shape) != 2:
        raise ValueError("quantized_matvec expects a 2-D weight tensor")
    x = np.asarray(x, dtype=np.float32)
    if x.shape[-1] != w.original_shape[1]:
        raise ValueError(
            f"shape mismatch: weight {w.original_shape} @ x {x.shape}"
        )
    spec = w.spec
    out_features, in_features = w.original_shape
    padded = spec.padded_elements(in_features)
    n_groups = padded // spec.group_size
    xg = _pad_last_axis(x, padded).reshape(n_groups, spec.group_size)
    qg = w.q.astype(np.float32).reshape(out_features, n_groups, spec.group_size)
    # Per-group partial accumulations, scaled at the accumulator.
    partial = np.einsum("ogk,gk->og", qg, xg)
    return (partial * w.scales.reshape(out_features, n_groups)).sum(axis=-1)


def quantization_error(x: np.ndarray, spec: QuantSpec = INT8) -> float:
    """Return the relative L2 error introduced by quantising ``x``."""
    x = np.asarray(x, dtype=np.float32)
    approx = dequantize(quantize(x, spec))
    denom = float(np.linalg.norm(x))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(x - approx)) / denom


def quantize_state_dict(
    weights: Dict[str, np.ndarray],
    spec: QuantSpec = INT8,
    skip_1d: bool = True,
) -> Dict[str, QuantizedTensor | np.ndarray]:
    """Quantise every matrix in a weight dictionary.

    One-dimensional tensors (norm scales) stay in float32 when
    ``skip_1d`` is true, matching the accelerator which keeps them
    on-chip in full precision.
    """
    out: Dict[str, QuantizedTensor | np.ndarray] = {}
    for name, tensor in weights.items():
        if skip_1d and tensor.ndim == 1:
            out[name] = np.asarray(tensor, dtype=np.float32)
        else:
            out[name] = quantize(tensor, spec)
    return out
