"""Checkpoint handling: synthetic weights and llama2.c-compatible I/O.

The paper runs the ``stories15M`` checkpoint from the ``llama2.c`` project.
That checkpoint (and the trained weight values) are not required to
reproduce the accelerator results — the accelerator's schedule depends on
tensor *shapes*, not values — so this module provides:

* :func:`synthesize_weights` — deterministic, seeded, correctly-shaped and
  correctly-scaled random weights for any :class:`~repro.llama.config.LlamaConfig`;
* :func:`save_checkpoint` / :func:`load_checkpoint` — a binary format
  compatible with the llama2.c "version 0" layout (a 28-byte header of
  seven little-endian int32 fields followed by float32 tensors in a fixed
  order), so real stories15M ``.bin`` files can be loaded when available.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np

from .config import LlamaConfig

__all__ = [
    "Checkpoint",
    "synthesize_weights",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_nbytes",
]

_HEADER_FORMAT = "<7i"  # dim, hidden_dim, n_layers, n_heads, n_kv_heads, vocab, seq
_HEADER_SIZE = struct.calcsize(_HEADER_FORMAT)


@dataclass
class Checkpoint:
    """A model configuration plus its weight tensors.

    ``weights`` maps the names produced by
    :meth:`LlamaConfig.parameter_shapes` to float32 arrays.
    """

    config: LlamaConfig
    weights: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        expected = dict(self.config.parameter_shapes())
        missing = sorted(set(expected) - set(self.weights))
        if missing:
            raise ValueError(f"checkpoint missing tensors: {missing[:5]}")
        for name, shape in expected.items():
            got = tuple(self.weights[name].shape)
            if got != shape:
                raise ValueError(
                    f"tensor {name!r} has shape {got}, expected {shape}"
                )

    @property
    def n_params(self) -> int:
        """Total number of parameters."""
        return int(sum(w.size for w in self.weights.values()))

    @property
    def nbytes(self) -> int:
        """Total float32 storage footprint of the weights in bytes."""
        return int(sum(w.nbytes for w in self.weights.values()))

    def tensors(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Iterate ``(name, array)`` in the canonical order."""
        for name, _ in self.config.parameter_shapes():
            yield name, self.weights[name]


def synthesize_weights(
    config: LlamaConfig,
    seed: int = 0,
    scale: float | None = None,
) -> Checkpoint:
    """Create a deterministic, correctly-shaped synthetic checkpoint.

    Weights are drawn from a normal distribution scaled like a trained
    transformer (``1/sqrt(dim)`` for projections) so activations through
    the reference model stay numerically well behaved; norm weights are
    initialised to one.  This is the substitution for the real stories15M
    checkpoint documented in DESIGN.md.
    """
    rng = np.random.default_rng(seed)
    std = scale if scale is not None else 1.0 / np.sqrt(config.dim)
    weights: Dict[str, np.ndarray] = {}
    for name, shape in config.parameter_shapes():
        if name.endswith("norm.weight"):
            weights[name] = np.ones(shape, dtype=np.float32)
        elif name == "tok_embeddings.weight":
            weights[name] = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
        else:
            weights[name] = rng.normal(0.0, std, size=shape).astype(np.float32)
    return Checkpoint(config=config, weights=weights)


def checkpoint_nbytes(config: LlamaConfig) -> int:
    """Size in bytes of a float32 checkpoint file for ``config``."""
    return _HEADER_SIZE + 4 * config.n_params()


def _export_order(config: LlamaConfig) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """Tensor order used by the llama2.c binary format (grouped by kind)."""
    hidden = config.resolved_hidden_dim()
    yield "tok_embeddings.weight", (config.vocab_size, config.dim)
    for kind, shape in (
        ("attention_norm.weight", (config.dim,)),
        ("attention.wq.weight", (config.dim, config.dim)),
        ("attention.wk.weight", (config.kv_dim, config.dim)),
        ("attention.wv.weight", (config.kv_dim, config.dim)),
        ("attention.wo.weight", (config.dim, config.dim)),
        ("ffn_norm.weight", (config.dim,)),
        ("feed_forward.w1.weight", (hidden, config.dim)),
        ("feed_forward.w2.weight", (config.dim, hidden)),
        ("feed_forward.w3.weight", (hidden, config.dim)),
    ):
        for i in range(config.n_layers):
            yield f"layers.{i}.{kind}", shape
    yield "norm.weight", (config.dim,)
    if not config.shared_classifier:
        yield "output.weight", (config.vocab_size, config.dim)


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> Path:
    """Write a checkpoint in the llama2.c version-0 binary layout.

    The header stores ``hidden_dim`` explicitly and encodes weight sharing
    by the sign of ``vocab_size`` (negative means an unshared output
    classifier follows the final norm weight), mirroring llama2.c.
    """
    path = Path(path)
    cfg = checkpoint.config
    vocab_field = cfg.vocab_size if cfg.shared_classifier else -cfg.vocab_size
    header = struct.pack(
        _HEADER_FORMAT,
        cfg.dim,
        cfg.resolved_hidden_dim(),
        cfg.n_layers,
        cfg.n_heads,
        cfg.n_kv_heads,
        vocab_field,
        cfg.max_seq_len,
    )
    with path.open("wb") as fh:
        fh.write(header)
        for name, _ in _export_order(cfg):
            arr = np.ascontiguousarray(checkpoint.weights[name], dtype=np.float32)
            fh.write(arr.tobytes())
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint` (or llama2.c).

    A malformed file — a header no model fits, fewer bytes than the
    header promises, a weight that is not a finite float — raises
    ``ValueError`` naming the file and the byte offset being read.
    Bytes past the last tensor are ignored (llama2.c appends RoPE tables).
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER_SIZE:
        raise ValueError(f"{path} is too small to contain a checkpoint header")
    dim, hidden_dim, n_layers, n_heads, n_kv_heads, vocab, seq = struct.unpack(
        _HEADER_FORMAT, raw[:_HEADER_SIZE]
    )
    try:
        config = LlamaConfig(
            dim=dim,
            hidden_dim=hidden_dim,
            n_layers=n_layers,
            n_heads=n_heads,
            n_kv_heads=n_kv_heads,
            vocab_size=abs(vocab),
            max_seq_len=seq,
            shared_classifier=vocab > 0,
            name=path.stem,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: malformed checkpoint header at byte 0: {exc}") from None
    expected_bytes = _HEADER_SIZE + 4 * config.n_params()
    if len(raw) < expected_bytes:
        raise ValueError(
            f"{path}: file has {len(raw)} bytes but the header describes a "
            f"model needing {expected_bytes} (truncated at byte {len(raw)})"
        )
    weights: Dict[str, np.ndarray] = {}
    buffer = np.frombuffer(raw, dtype=np.float32, offset=_HEADER_SIZE)
    cursor = 0
    for name, shape in _export_order(config):
        n = int(np.prod(shape))
        tensor = buffer[cursor:cursor + n]
        bad = np.flatnonzero(~np.isfinite(tensor))
        if bad.size:
            raise ValueError(
                f"{path}: non-finite weight in {name} at byte "
                f"{_HEADER_SIZE + 4 * (cursor + int(bad[0]))}"
            )
        weights[name] = tensor.reshape(shape).copy()
        cursor += n
    return Checkpoint(config=config, weights=weights)
