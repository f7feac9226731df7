"""Checkpoint → quantised-checkpoint conversion.

Conversion walks every tensor in a float32 :class:`Checkpoint`, resolves
its storage spec through the :class:`QuantConfig`, and produces a
:class:`QuantizedCheckpoint` holding :class:`QuantizedTensor`s (plus raw
float32 arrays for tensors the config pins to full precision — norm
scales and any fp32 fallbacks).  The result carries exact byte
accounting so reports can attribute speedups to the bytes that actually
disappeared from the HBM stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple, Union

import numpy as np

from repro.llama.checkpoint import Checkpoint
from repro.llama.config import LlamaConfig
from repro.llama.quantization import QuantizedTensor, quantize

from .config import QuantConfig

__all__ = ["QuantizedCheckpoint", "quantize_checkpoint"]

TensorLike = Union[QuantizedTensor, np.ndarray]


@dataclass
class QuantizedCheckpoint:
    """A model's weights in mixed quantised/float32 storage."""

    config: LlamaConfig
    quant: QuantConfig
    tensors: Dict[str, TensorLike]

    def __post_init__(self) -> None:
        expected = {name for name, _ in self.config.parameter_shapes()}
        missing = sorted(expected - set(self.tensors))
        if missing:
            raise ValueError(f"quantized checkpoint missing tensors: {missing[:5]}")

    # ------------------------------------------------------------------
    # Byte accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Stored bytes under the quantisation spec (scales included)."""
        total = 0
        for tensor in self.tensors.values():
            total += int(tensor.nbytes)
        return total

    @property
    def fp32_nbytes(self) -> int:
        """Bytes the same weights occupy in float32."""
        return 4 * self.config.n_params()

    @property
    def bytes_saved(self) -> int:
        return self.fp32_nbytes - self.nbytes

    @property
    def n_quantized(self) -> int:
        """Number of tensors actually stored quantised."""
        return sum(1 for t in self.tensors.values() if isinstance(t, QuantizedTensor))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[str, TensorLike]]:
        for name, _ in self.config.parameter_shapes():
            yield name, self.tensors[name]

    def summary(self) -> Dict[str, Union[int, float, str]]:
        """Counters for CLI output and the conversion report."""
        return {
            "model": self.config.name,
            "quant": self.quant.label,
            "tensors": len(self.tensors),
            "quantized_tensors": self.n_quantized,
            "fp32_bytes": self.fp32_nbytes,
            "quantized_bytes": self.nbytes,
            "bytes_saved": self.bytes_saved,
            "compression": round(self.fp32_nbytes / max(self.nbytes, 1), 3),
        }


def quantize_checkpoint(
    checkpoint: Checkpoint,
    quant: QuantConfig,
) -> QuantizedCheckpoint:
    """Quantise every tensor of ``checkpoint`` per ``quant``.

    Tensors the config resolves to ``None`` (norm scales, fp32
    overrides, an fp32 logits head) are stored as float32 arrays; the
    rest at the groups :meth:`QuantConfig.for_model` gives.  With
    a shared classifier the embedding table doubles as the logits matrix
    and therefore follows the logits spec.
    """
    shared = checkpoint.config.shared_classifier
    specs = quant.for_model(checkpoint.config)
    tensors: Dict[str, TensorLike] = {}
    for name, tensor in checkpoint.tensors():
        spec = specs.spec_for(
            name,
            classifier=shared and name == "tok_embeddings.weight",
            ndim=tensor.ndim,
        )
        if spec is None:
            tensors[name] = np.asarray(tensor, dtype=np.float32)
        else:
            tensors[name] = quantize(tensor, spec)
    return QuantizedCheckpoint(config=checkpoint.config, quant=quant, tensors=tensors)
