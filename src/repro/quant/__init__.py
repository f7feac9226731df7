"""Quantized serving subsystem.

This package turns the low-level group-quantisation primitives in
:mod:`repro.llama.quantization` into a serving-level feature:

* :class:`~repro.quant.config.QuantConfig` — which tensors are stored at
  which precision (weights, optional KV cache, logits head, per-layer
  overrides);
* :mod:`repro.quant.convert` — checkpoint → quantised checkpoint
  conversion with exact byte accounting;
* :mod:`repro.quant.format` — a GGUF-style single-file sidecar format
  (``.slq``) so converted checkpoints round-trip without re-quantising
  (:func:`~repro.quant.format.convert_to_sidecar` writes and verifies one).

The timing side (smaller streamed weight tiles, dequant cycles on the
SFU path, quantised KV traffic) is threaded through
``graph``/``accel``/``compile`` by honouring the per-op annotations the
``GraphBuilder`` derives from a ``QuantConfig``.
"""

from .config import QuantConfig, canonical_tensor_name, resolve_quant
from .convert import QuantizedCheckpoint, quantize_checkpoint
from .format import convert_to_sidecar, load_quantized, save_quantized

__all__ = [
    "QuantConfig",
    "QuantizedCheckpoint",
    "canonical_tensor_name",
    "convert_to_sidecar",
    "load_quantized",
    "quantize_checkpoint",
    "resolve_quant",
    "save_quantized",
]
