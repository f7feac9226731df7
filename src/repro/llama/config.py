"""Model configuration for the Llama-2 / TinyLlama family.

The paper evaluates the ``stories15M`` checkpoint from the ``llama2.c``
project (a Llama-2 architecture trained on TinyStories).  This module
captures the architectural hyper-parameters of that family and provides the
published presets (``stories15M``, ``stories42M``, ``stories110M``) plus a
few tiny configurations used by the test-suite.

The configuration is deliberately a plain frozen dataclass so it can be
hashed, compared, serialised and embedded in experiment reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Tuple

__all__ = [
    "LlamaConfig",
    "PRESETS",
    "preset",
    "available_presets",
]


@dataclass(frozen=True)
class LlamaConfig:
    """Architectural description of a Llama-2 style decoder-only model.

    Attributes
    ----------
    dim:
        Transformer embedding (hidden) dimension.
    n_layers:
        Number of decoder blocks.
    n_heads:
        Number of attention (query) heads.
    n_kv_heads:
        Number of key/value heads.  Equal to ``n_heads`` for standard
        multi-head attention; smaller for grouped-query attention.
    vocab_size:
        Size of the tokenizer vocabulary.
    hidden_dim:
        Inner dimension of the SwiGLU feed-forward network.  When 0 the
        llama2.c convention is applied (``multiple_of``-rounded 2/3 * 4 *
        dim) by :meth:`resolved_hidden_dim`.
    multiple_of:
        Rounding granularity used when deriving ``hidden_dim``.
    max_seq_len:
        Maximum sequence length (context window) supported by the KV cache
        and positional encoding.
    norm_eps:
        Epsilon used by RMSNorm.
    rope_theta:
        Base of the rotary positional embedding frequencies.
    shared_classifier:
        Whether the output projection shares weights with the token
        embedding (true for the stories* checkpoints).
    """

    dim: int = 288
    n_layers: int = 6
    n_heads: int = 6
    n_kv_heads: int = 6
    vocab_size: int = 32000
    hidden_dim: int = 768
    multiple_of: int = 32
    max_seq_len: int = 256
    norm_eps: float = 1e-5
    rope_theta: float = 10000.0
    shared_classifier: bool = True
    name: str = "custom"

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.n_layers <= 0:
            raise ValueError(f"n_layers must be positive, got {self.n_layers}")
        if self.n_heads <= 0:
            raise ValueError(f"n_heads must be positive, got {self.n_heads}")
        if self.n_kv_heads <= 0:
            raise ValueError(
                f"n_kv_heads must be positive, got {self.n_kv_heads}"
            )
        if self.dim % self.n_heads != 0:
            raise ValueError(
                f"dim ({self.dim}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError(
                "n_heads must be divisible by n_kv_heads for grouped-query "
                f"attention, got {self.n_heads} / {self.n_kv_heads}"
            )
        if self.vocab_size <= 0:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.max_seq_len <= 0:
            raise ValueError(f"max_seq_len must be positive, got {self.max_seq_len}")
        if self.norm_eps <= 0:
            raise ValueError(f"norm_eps must be positive, got {self.norm_eps}")
        if self.hidden_dim < 0:
            raise ValueError(f"hidden_dim must be >= 0, got {self.hidden_dim}")
        if self.multiple_of <= 0:
            raise ValueError(f"multiple_of must be positive, got {self.multiple_of}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def head_dim(self) -> int:
        """Dimension of a single attention head."""
        return self.dim // self.n_heads

    @property
    def kv_dim(self) -> int:
        """Total key/value projection width (``n_kv_heads * head_dim``)."""
        return self.n_kv_heads * self.head_dim

    @property
    def group_size(self) -> int:
        """Number of query heads sharing one KV head (GQA group size)."""
        return self.n_heads // self.n_kv_heads

    def check_positions(self, positions: int) -> None:
        """Raise ``ValueError`` if ``positions`` do not fit the context
        window."""
        if positions > self.max_seq_len:
            raise ValueError(
                f"{positions} positions exceed the context window "
                f"({self.max_seq_len})"
            )

    def resolved_hidden_dim(self) -> int:
        """Return the FFN inner dimension, deriving it when unset.

        Follows the llama2.c convention: ``hidden = 4 * dim``, shrunk to
        ``2/3`` and rounded up to ``multiple_of``.
        """
        if self.hidden_dim:
            return self.hidden_dim
        hidden = 4 * self.dim
        hidden = int(2 * hidden / 3)
        hidden = self.multiple_of * (
            (hidden + self.multiple_of - 1) // self.multiple_of
        )
        return hidden

    # ------------------------------------------------------------------
    # Size accounting (used by the accelerator memory planner)
    # ------------------------------------------------------------------
    def n_params(self) -> int:
        """Total parameter count of the model (float elements): the sizes
        :meth:`parameter_shapes` lists, in closed form so that a header
        claiming a huge layer count costs nothing to check."""
        dim, kv_dim, hidden = self.dim, self.kv_dim, self.resolved_hidden_dim()
        per_layer = 2 * dim + 2 * dim * dim + 2 * kv_dim * dim + 3 * hidden * dim
        tables = 1 if self.shared_classifier else 2
        return tables * self.vocab_size * dim + self.n_layers * per_layer + dim

    def parameter_shapes(self) -> Iterator[Tuple[str, Tuple[int, ...]]]:
        """Yield ``(name, shape)`` for every weight tensor in the model.

        Layer-local tensors are prefixed ``layers.{i}.``, matching the
        naming used by :mod:`repro.llama.checkpoint`.
        """
        hidden = self.resolved_hidden_dim()
        yield "tok_embeddings.weight", (self.vocab_size, self.dim)
        for i in range(self.n_layers):
            p = f"layers.{i}."
            yield p + "attention_norm.weight", (self.dim,)
            yield p + "attention.wq.weight", (self.dim, self.dim)
            yield p + "attention.wk.weight", (self.kv_dim, self.dim)
            yield p + "attention.wv.weight", (self.kv_dim, self.dim)
            yield p + "attention.wo.weight", (self.dim, self.dim)
            yield p + "ffn_norm.weight", (self.dim,)
            yield p + "feed_forward.w1.weight", (hidden, self.dim)
            yield p + "feed_forward.w2.weight", (self.dim, hidden)
            yield p + "feed_forward.w3.weight", (hidden, self.dim)
        yield "norm.weight", (self.dim,)
        if not self.shared_classifier:
            yield "output.weight", (self.vocab_size, self.dim)

    def kv_cache_elements(self, seq_len: int | None = None) -> int:
        """Number of elements held by a full KV cache at ``seq_len``."""
        seq_len = self.max_seq_len if seq_len is None else seq_len
        if seq_len < 0:
            raise ValueError("seq_len must be >= 0")
        return 2 * self.n_layers * seq_len * self.kv_dim

    def flops_per_token(self, context_len: int = 0) -> int:
        """Approximate FLOPs required to decode one token.

        ``context_len`` is the number of cached tokens attended over (the
        attention score/value products scale with it).  Matmul FLOPs count
        multiply and add separately (factor 2).
        """
        hidden = self.resolved_hidden_dim()
        per_layer = 0
        # QKV projections
        per_layer += 2 * self.dim * self.dim          # wq
        per_layer += 2 * self.dim * self.kv_dim * 2   # wk, wv
        # attention scores + weighted values
        per_layer += 2 * self.n_heads * self.head_dim * max(context_len, 1) * 2
        # output projection
        per_layer += 2 * self.dim * self.dim
        # FFN
        per_layer += 2 * self.dim * hidden * 3
        total = per_layer * self.n_layers
        # final classifier
        total += 2 * self.dim * self.vocab_size
        return total

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-``dict`` representation (JSON serialisable)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LlamaConfig":
        """Construct a config from a mapping, ignoring unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def replace(self, **changes: Any) -> "LlamaConfig":
        """Return a copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
def _make_presets() -> Dict[str, LlamaConfig]:
    presets = {
        # llama2.c "stories" checkpoints trained on TinyStories.  The
        # stories15M model is the one the paper evaluates.
        "stories15M": LlamaConfig(
            dim=288, n_layers=6, n_heads=6, n_kv_heads=6,
            vocab_size=32000, hidden_dim=768, max_seq_len=256,
            name="stories15M",
        ),
        "stories42M": LlamaConfig(
            dim=512, n_layers=8, n_heads=8, n_kv_heads=8,
            vocab_size=32000, hidden_dim=1376, max_seq_len=1024,
            name="stories42M",
        ),
        "stories110M": LlamaConfig(
            dim=768, n_layers=12, n_heads=12, n_kv_heads=12,
            vocab_size=32000, hidden_dim=2048, max_seq_len=1024,
            name="stories110M",
        ),
        # TinyLlama-1.1B architecture (GQA), included for scale studies.
        "tinyllama1.1B": LlamaConfig(
            dim=2048, n_layers=22, n_heads=32, n_kv_heads=4,
            vocab_size=32000, hidden_dim=5632, max_seq_len=2048,
            name="tinyllama1.1B",
        ),
        # Tiny configurations for fast unit tests.
        "test-micro": LlamaConfig(
            dim=16, n_layers=2, n_heads=2, n_kv_heads=2,
            vocab_size=64, hidden_dim=48, max_seq_len=32,
            name="test-micro",
        ),
        "test-small": LlamaConfig(
            dim=64, n_layers=3, n_heads=4, n_kv_heads=2,
            vocab_size=512, hidden_dim=176, max_seq_len=64,
            name="test-small",
        ),
    }
    return presets


PRESETS: Dict[str, LlamaConfig] = _make_presets()


def preset(name: str) -> LlamaConfig:
    """Look up a named preset configuration.

    Raises
    ------
    KeyError
        If ``name`` is not a known preset.  The error message lists the
        available preset names.
    """
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def available_presets() -> Tuple[str, ...]:
    """Return the names of all built-in presets."""
    return tuple(sorted(PRESETS))
