"""NumPy reference implementation of Llama-2 inference (llama2.c port).

This is the functional ground truth of the reproduction: a faithful,
single-batch port of the llama2.c forward pass (RMSNorm, rotary position
embeddings, grouped-query attention with a KV cache, SwiGLU feed-forward,
weight-tied classifier).  The accelerator simulation reuses these
primitives for its functional model, so end-to-end generation through the
simulated FPGA can be checked token-for-token against this module.

All operators are exposed as standalone functions (``rmsnorm``,
``softmax``, ``apply_rope`` …) because the operator-graph builder in
:mod:`repro.graph` and the accelerator SFU refer to them individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .checkpoint import Checkpoint
from .kv_cache import KVCache

__all__ = [
    "rmsnorm",
    "softmax",
    "silu",
    "swiglu",
    "rope_frequencies",
    "apply_rope",
    "attention_scores",
    "LlamaModel",
    "ForwardTrace",
]


# ----------------------------------------------------------------------
# Elementary operators (the SFU's repertoire)
# ----------------------------------------------------------------------
def rmsnorm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer normalisation.

    ``out = x / sqrt(mean(x^2) + eps) * weight`` over the last axis.
    """
    x = np.asarray(x, dtype=np.float32)
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return (x / np.sqrt(ms + eps)) * weight


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU (swish) activation: ``x * sigmoid(x)``."""
    x = np.asarray(x, dtype=np.float32)
    return x / (1.0 + np.exp(-x))


def swiglu(gate: np.ndarray, up: np.ndarray) -> np.ndarray:
    """SwiGLU combination used by the Llama FFN: ``silu(gate) * up``."""
    return silu(gate) * np.asarray(up, dtype=np.float32)


def rope_frequencies(head_dim: int, max_seq_len: int, theta: float = 10000.0) -> np.ndarray:
    """Precompute rotary embedding angles.

    Returns an array of shape ``(max_seq_len, head_dim // 2)`` holding the
    rotation angle for each position and frequency pair.
    """
    if head_dim % 2 != 0:
        raise ValueError("head_dim must be even for RoPE")
    inv_freq = 1.0 / (theta ** (np.arange(0, head_dim, 2, dtype=np.float32) / head_dim))
    positions = np.arange(max_seq_len, dtype=np.float32)
    return np.outer(positions, inv_freq)


def apply_rope(x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive (even, odd) pairs of ``x`` by ``angles``.

    ``x`` has shape ``(..., n_heads, head_dim)``; ``angles`` has shape
    ``(head_dim // 2,)`` (a single position) and broadcasts over heads.
    """
    x = np.asarray(x, dtype=np.float32)
    cos = np.cos(angles)
    sin = np.sin(angles)
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out


def attention_scores(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Scaled dot-product scores for one head: ``q·K^T / sqrt(d)``."""
    head_dim = q.shape[-1]
    return keys @ q / np.sqrt(np.float32(head_dim))


# ----------------------------------------------------------------------
# Forward-pass tracing (consumed by the accelerator compiler tests)
# ----------------------------------------------------------------------
@dataclass
class ForwardTrace:
    """Optional record of intermediate activations of one forward call."""

    activations: Dict[str, np.ndarray]

    def record(self, name: str, value: np.ndarray) -> None:
        self.activations[name] = np.array(value, copy=True)


class LlamaModel:
    """Single-batch Llama-2 inference engine.

    Parameters
    ----------
    checkpoint:
        Model weights and configuration.

    Notes
    -----
    The engine processes one token per :meth:`forward` call (the llama2.c
    decode loop); prefill iterates positions, matching how the
    accelerator schedules prefill.
    """

    def __init__(self, checkpoint: Checkpoint) -> None:
        self.checkpoint = checkpoint
        self.config = checkpoint.config
        self.weights = checkpoint.weights
        self._rope = rope_frequencies(
            self.config.head_dim, self.config.max_seq_len, self.config.rope_theta
        )

    # ------------------------------------------------------------------
    def new_cache(self, max_seq_len: int | None = None) -> KVCache:
        """Allocate a fresh KV cache sized for this model."""
        return KVCache(self.config, max_seq_len=max_seq_len)

    def embed(self, token: int) -> np.ndarray:
        """Look up the embedding row of ``token``."""
        if not 0 <= token < self.config.vocab_size:
            raise IndexError(
                f"token id {token} outside vocabulary of size {self.config.vocab_size}"
            )
        return np.array(self.weights["tok_embeddings.weight"][token], dtype=np.float32)

    # ------------------------------------------------------------------
    def forward(
        self,
        token: int,
        pos: int,
        cache: KVCache,
        trace: Optional[ForwardTrace] = None,
    ) -> np.ndarray:
        """Run one decoder step and return the vocabulary logits.

        Parameters
        ----------
        token:
            Input token id at position ``pos``.
        pos:
            Absolute position in the sequence (0-based).
        cache:
            KV cache that already holds positions ``0..pos-1``.
        trace:
            Optional :class:`ForwardTrace` for recording intermediate
            activations (used by equivalence tests).
        """
        cfg = self.config
        if pos >= cache.capacity:
            raise IndexError(
                f"position {pos} exceeds KV cache capacity {cache.capacity}"
            )
        x = self.embed(token)
        if trace is not None:
            trace.record("embedding", x)

        for layer in range(cfg.n_layers):
            x = self._decoder_block(x, layer, pos, cache, trace)

        x = rmsnorm(x, self.weights["norm.weight"], cfg.norm_eps)
        classifier = (
            self.weights["tok_embeddings.weight"]
            if cfg.shared_classifier
            else self.weights["output.weight"]
        )
        logits = classifier @ x
        if trace is not None:
            trace.record("logits", logits)
        return logits

    # ------------------------------------------------------------------
    def _decoder_block(
        self,
        x: np.ndarray,
        layer: int,
        pos: int,
        cache: KVCache,
        trace: Optional[ForwardTrace],
    ) -> np.ndarray:
        cfg = self.config
        w = self.weights
        p = f"layers.{layer}."

        # --- attention ------------------------------------------------
        xn = rmsnorm(x, w[p + "attention_norm.weight"], cfg.norm_eps)
        q = w[p + "attention.wq.weight"] @ xn
        k = w[p + "attention.wk.weight"] @ xn
        v = w[p + "attention.wv.weight"] @ xn

        angles = self._rope[pos]
        q = apply_rope(q.reshape(cfg.n_heads, cfg.head_dim), angles)
        k = apply_rope(k.reshape(cfg.n_kv_heads, cfg.head_dim), angles)

        cache.append(layer, k.reshape(-1), v, pos)
        keys = cache.keys(layer, pos + 1).reshape(pos + 1, cfg.n_kv_heads, cfg.head_dim)
        values = cache.values(layer, pos + 1).reshape(
            pos + 1, cfg.n_kv_heads, cfg.head_dim
        )

        attn_out = np.zeros((cfg.n_heads, cfg.head_dim), dtype=np.float32)
        group = cfg.group_size
        for h in range(cfg.n_heads):
            kv_head = h // group
            scores = attention_scores(q[h], keys[:, kv_head, :])
            probs = softmax(scores)
            attn_out[h] = probs @ values[:, kv_head, :]
        if trace is not None:
            trace.record(f"layer{layer}.attn", attn_out)

        x = x + w[p + "attention.wo.weight"] @ attn_out.reshape(cfg.dim)

        # --- feed forward ----------------------------------------------
        xn = rmsnorm(x, w[p + "ffn_norm.weight"], cfg.norm_eps)
        gate = w[p + "feed_forward.w1.weight"] @ xn
        up = w[p + "feed_forward.w3.weight"] @ xn
        h_act = swiglu(gate, up)
        x = x + w[p + "feed_forward.w2.weight"] @ h_act
        if trace is not None:
            trace.record(f"layer{layer}.out", x)
        return x
