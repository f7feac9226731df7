"""Key/value cache for autoregressive decoding.

The cache is the dominant on-chip/off-chip data structure during the decode
stage and is what the paper's memory-reuse strategy is largely about.  This
implementation keeps one pre-allocated ``(max_seq_len, kv_dim)`` buffer per
layer for keys and one for values, exposing views for attention and an
append operation for new tokens.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .config import LlamaConfig
from .quantization import QuantSpec, dequantize, quantize

__all__ = ["KVCache", "fake_quant_kv"]


def fake_quant_kv(
    key: np.ndarray, value: np.ndarray, spec: QuantSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """One position's key and value vectors as an int8-resident cache
    returns them: quantised and dequantised (fake-quant on write, so
    every read sees the encoding's error).  The two go through as one
    ``[2, kv_dim]`` pass; groups never span rows, so each vector gets
    exactly what quantising it alone gives.
    """
    pair = np.empty((2, key.shape[0]), dtype=np.float32)
    pair[0], pair[1] = key, value
    pair = dequantize(quantize(pair, spec))
    return pair[0], pair[1]


class KVCache:
    """Pre-allocated per-layer key/value cache.

    Parameters
    ----------
    config:
        Model configuration (provides layer count, kv width, max length).
    max_seq_len:
        Optional override of the cache capacity (defaults to the model's
        ``max_seq_len``).
    quant:
        How the cached vectors are stored: ``None`` for float32, or the
        group-quantisation spec of a quantising ``QuantConfig.kv``.  Each
        appended key/value vector is then quantised and dequantised on
        write (fake-quant), so every read reflects the error of the int8
        HBM-resident encoding while the working arrays stay float32 for
        the NumPy attention kernels.  The byte-accounting statics accept
        the same spec so admission budgets and paged-block sizes shrink
        to the quantised footprint.
    """

    def __init__(
        self,
        config: LlamaConfig,
        max_seq_len: int | None = None,
        quant: Optional[QuantSpec] = None,
    ) -> None:
        self.config = config
        self.capacity = int(
            config.max_seq_len if max_seq_len is None else max_seq_len
        )
        if self.capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.quant = quant
        shape = (config.n_layers, self.capacity, config.kv_dim)
        self._keys = np.zeros(shape, dtype=np.float32)
        self._values = np.zeros(shape, dtype=np.float32)
        self._length = 0

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of cached positions."""
        return self._length

    @property
    def nbytes(self) -> int:
        """Total allocated cache storage in bytes."""
        return int(self._keys.nbytes + self._values.nbytes)

    @staticmethod
    def bytes_per_position(
        config: LlamaConfig,
        quant: Optional[QuantSpec] = None,
    ) -> int:
        """Cache bytes one token position occupies across all layers:
        float32 vectors, or with a ``quant`` spec group-quantised
        integers plus per-group float32 scales."""
        if quant is not None:
            return int(2 * config.n_layers * quant.storage_bytes(config.kv_dim))
        return int(2 * config.n_layers * config.kv_dim * 4)

    @staticmethod
    def bytes_per_block(
        config: LlamaConfig,
        block_tokens: int,
        quant: Optional[QuantSpec] = None,
    ) -> int:
        """Cache bytes one fixed-size block of token positions occupies.

        The paged KV pool (:mod:`repro.kvpool`) allocates and transfers
        the cache at this granularity; it is also the unit the serving
        engine's HBM traffic accounting rounds attention reads up to.
        """
        if block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        return KVCache.bytes_per_position(config, quant) * block_tokens

    @staticmethod
    def blocks_for(n_positions: int, block_tokens: int) -> int:
        """Blocks of ``block_tokens`` positions covering ``n_positions``."""
        if n_positions < 0:
            raise ValueError("n_positions must be >= 0")
        if block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        return -(-n_positions // block_tokens)

    @classmethod
    def projected_nbytes(
        cls,
        config: LlamaConfig,
        n_positions: int,
        quant: Optional[QuantSpec] = None,
    ) -> int:
        """Storage a cache sized for ``n_positions`` will occupy.

        The batched-serving scheduler reserves this amount against its KV
        memory budget *before* admitting a request, so admission is
        back-pressured by the worst-case footprint (prompt plus the full
        decode budget) rather than the instantaneous one.
        """
        if n_positions < 0:
            raise ValueError("n_positions must be >= 0")
        return cls.bytes_per_position(config, quant) * n_positions

    def reset(self) -> None:
        """Truncate to length 0 without reallocating the buffers.

        Engines recycle one pre-allocated cache across requests by
        resetting it between sequences; stale entries past the new length
        are never read because every view is bounded by ``length``.
        """
        self._length = 0

    def truncate(self, length: int) -> None:
        """Drop cached positions at or past ``length`` (never grows).

        This is the rollback primitive of speculative decoding: a verify
        step writes K+1 positions optimistically and truncates back to
        the last committed one when draft tokens are rejected.  Stale
        entries past the new length are never read (views are bounded by
        ``length``) and the next append simply overwrites them.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        self._length = min(self._length, length)

    # ------------------------------------------------------------------
    def append(self, layer: int, key: np.ndarray, value: np.ndarray, pos: int) -> None:
        """Store the key/value vectors for ``pos`` in ``layer``.

        ``pos`` must equal the current cache length when ``layer`` is the
        final layer appended for that position; out-of-range positions
        raise.
        """
        if not 0 <= layer < self.config.n_layers:
            raise IndexError(f"layer {layer} out of range")
        if not 0 <= pos < self.capacity:
            raise IndexError(
                f"position {pos} exceeds cache capacity {self.capacity}"
            )
        key = np.asarray(key, dtype=np.float32).reshape(self.config.kv_dim)
        value = np.asarray(value, dtype=np.float32).reshape(self.config.kv_dim)
        if self.quant is not None:
            key, value = fake_quant_kv(key, value, self.quant)
        self._keys[layer, pos] = key
        self._values[layer, pos] = value
        if layer == self.config.n_layers - 1:
            self._length = max(self._length, pos + 1)

    def keys(self, layer: int, length: int | None = None) -> np.ndarray:
        """Return a view of the cached keys of ``layer`` up to ``length``."""
        length = self._length if length is None else length
        return self._keys[layer, :length]

    def values(self, layer: int, length: int | None = None) -> np.ndarray:
        """Return a view of the cached values of ``layer`` up to ``length``."""
        length = self._length if length is None else length
        return self._values[layer, :length]
