"""Group quantisation as it was before it worked in place — now the
*oracle* the in-place quantiser is compared against.

``repro.llama.quantization.quantize`` divides, rounds and clips one
float32 array in place and casts it to int8 once, and ``dequantize``
multiplies the int8 codes by the scales straight into float32.  This
module keeps the bodies they replaced, verbatim: a rounded array cast to
int32, clipped as int32 and cast again to int8, and codes widened to a
float32 copy before the multiply.  It is a reference implementation, not
production code; ``test_quant_oracle.py`` requires the two to agree bit
for bit on codes, scales and dequantised values.
"""

from __future__ import annotations

import numpy as np

from repro.llama.quantization import INT8, QuantizedTensor, QuantSpec

__all__ = ["quantize", "dequantize"]


def _pad_last_axis(x: np.ndarray, padded_last: int) -> np.ndarray:
    """Zero-pad the last axis of ``x`` up to ``padded_last`` elements."""
    last = x.shape[-1]
    if last == padded_last:
        return x
    padded = np.zeros((*x.shape[:-1], padded_last), dtype=x.dtype)
    padded[..., :last] = x
    return padded


def quantize(x: np.ndarray, spec: QuantSpec = INT8) -> QuantizedTensor:
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
    spec = qt.spec
    last = qt.original_shape[-1]
    padded_last = spec.padded_elements(last)
    grouped = qt.q.astype(np.float32).reshape(
        *qt.original_shape[:-1], padded_last // spec.group_size, spec.group_size
    )
    out = grouped * qt.scales[..., None]
    out = out.reshape(*qt.original_shape[:-1], padded_last)[..., :last]
    return np.ascontiguousarray(out, dtype=np.float32)
