"""Serving-level quantisation configuration.

A :class:`QuantConfig` answers one question for every weight tensor in
the model — *at what precision is it stored in HBM?* — and optionally
the same question for the KV cache.  It is consumed in three places:

* the **functional** path (``SpeedLLMAccelerator``) fake-quantises the
  checkpoint per tensor so generated tokens reflect quantisation error;
* the **timing** path (``GraphBuilder``/``ProgramCompiler``) shrinks
  streamed weight bytes per tensor and charges a dequant cost;
* the **checkpoint sidecar** (``repro.quant.format``) stores it with the
  packed tensors, and a reload must give back an equal config.

The config is fixed per ``AcceleratorConfig``, so each step compiler —
and the compile cache it owns — only ever sees one layout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.llama.quantization import QuantSpec

__all__ = [
    "QuantConfig",
    "canonical_tensor_name",
    "resolve_quant",
]

_GRAPH_LAYER_RE = re.compile(r"^L(\d+)\.")

# Graph tensor names the classifier matmul can carry, depending on
# whether the embedding table is shared with the output head.
_CLASSIFIER_NAMES = ("output.weight", "tok_embeddings.weight(classifier)")


def canonical_tensor_name(name: str) -> str:
    """Map graph weight names (``L3.attention.wq.weight``) onto the
    checkpoint naming (``layers.3.attention.wq.weight``) so override
    patterns match either caller."""
    return _GRAPH_LAYER_RE.sub(r"layers.\1.", name)


def _spec_to_dict(spec: Optional[QuantSpec]) -> Optional[Dict[str, int]]:
    if spec is None:
        return None
    return {"bits": spec.bits, "group_size": spec.group_size}


def _spec_from_dict(data: Optional[Mapping[str, Any]]) -> Optional[QuantSpec]:
    if data is None:
        return None
    return QuantSpec(bits=int(data["bits"]), group_size=int(data["group_size"]))


@dataclass(frozen=True)
class QuantConfig:
    """Which precision each tensor class is stored at.

    Attributes
    ----------
    weights:
        Spec for ordinary 2-D weight matrices (projections, FFN,
        embedding table).
    kv:
        Optional spec for the KV cache.  ``None`` keeps KV in float32.
        Only 8-bit KV is supported (the timing model stores whole-byte
        elements per cached position).
    logits:
        Spec for the classifier head — the op most sensitive to
        quantisation error.  ``None`` keeps the head (and, for models
        with a shared classifier, the embedding table) in float32.
    overrides:
        ``(pattern, spec_or_None)`` pairs matched first, in order, with
        :func:`fnmatch.fnmatchcase` against both the checkpoint and
        graph tensor names.  ``None`` pins the matching tensors to
        float32.
    """

    weights: QuantSpec = field(default_factory=QuantSpec)
    kv: Optional[QuantSpec] = None
    logits: Optional[QuantSpec] = field(default_factory=QuantSpec)
    overrides: Tuple[Tuple[str, Optional[QuantSpec]], ...] = ()

    def __post_init__(self) -> None:
        if self.weights.bits not in (4, 8):
            raise ValueError(
                f"weight quantisation supports 4 or 8 bits, got {self.weights.bits}"
            )
        if self.kv is not None and self.kv.bits != 8:
            raise ValueError(
                f"quantized KV supports 8-bit specs only, got {self.kv.bits}"
            )
        if self.logits is not None and self.logits.bits not in (4, 8):
            raise ValueError(
                f"logits quantisation supports 4 or 8 bits, got {self.logits.bits}"
            )
        object.__setattr__(self, "overrides", tuple(self.overrides))
        for pattern, spec in self.overrides:
            if not isinstance(pattern, str) or not pattern:
                raise ValueError(f"override pattern must be a non-empty string: {pattern!r}")
            if spec is not None and not isinstance(spec, QuantSpec):
                raise TypeError(f"override spec must be a QuantSpec or None: {spec!r}")

    # ------------------------------------------------------------------
    # Per-tensor resolution
    # ------------------------------------------------------------------
    def spec_for(
        self,
        name: str,
        *,
        classifier: bool = False,
        ndim: int = 2,
    ) -> Optional[QuantSpec]:
        """Resolve the storage spec for one tensor (``None`` = float32).

        1-D tensors (norm scales) always stay float32: they are tiny and
        live on-chip.  ``classifier`` marks tensors that feed the logits
        matmul — pass ``shared_classifier`` for ``tok_embeddings.weight``
        so a shared table follows the (sensitive) logits spec.
        """
        if ndim < 2:
            return None
        canon = canonical_tensor_name(name)
        for pattern, spec in self.overrides:
            if fnmatchcase(canon, pattern) or fnmatchcase(name, pattern):
                return spec
        if classifier or canon in _CLASSIFIER_NAMES:
            return self.logits
        return self.weights

    def bytes_per_element(
        self,
        name: str,
        *,
        classifier: bool = False,
        ndim: int = 2,
    ) -> float:
        """Effective streamed bytes per element, scale overhead included."""
        spec = self.spec_for(name, classifier=classifier, ndim=ndim)
        return 4.0 if spec is None else spec.bytes_per_element

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Short human-readable tag used in reports and bench rows."""
        parts = [f"int{self.weights.bits}g{self.weights.group_size}"]
        if self.kv is not None:
            parts.append(f"kv{self.kv.bits}")
        if self.logits is None:
            parts.append("fp32head")
        elif self.logits != self.weights:
            parts.append(f"head{self.logits.bits}")
        if self.overrides:
            parts.append(f"ovr{len(self.overrides)}")
        return "+".join(parts)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "weights": _spec_to_dict(self.weights),
            "kv": _spec_to_dict(self.kv),
            "logits": _spec_to_dict(self.logits),
            "overrides": [
                {"pattern": p, "spec": _spec_to_dict(s)} for p, s in self.overrides
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantConfig":
        weights = _spec_from_dict(data.get("weights"))
        if weights is None:
            raise ValueError("quant config requires a weight spec")
        return cls(
            weights=weights,
            kv=_spec_from_dict(data.get("kv")),
            logits=_spec_from_dict(data.get("logits")),
            overrides=tuple(
                (entry["pattern"], _spec_from_dict(entry.get("spec")))
                for entry in data.get("overrides", ())
            ),
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_mode(
        cls,
        mode: str,
        *,
        group_size: int = 64,
        quant_kv: bool = False,
        fp32_logits: bool = False,
        kv_group: Optional[int] = None,
    ) -> Optional["QuantConfig"]:
        """Build a config from a CLI-style mode string.

        ``"fp32"``/``"none"`` return ``None`` (no quantisation).  INT4
        mode keeps the logits head at INT8 — its error otherwise
        dominates token disagreement.
        """
        mode = mode.lower()
        if mode in ("fp32", "none", "off"):
            return None
        if mode not in ("int8", "int4"):
            raise ValueError(f"unknown quantisation mode {mode!r} (int8, int4, fp32)")
        bits = 8 if mode == "int8" else 4
        logits = None if fp32_logits else QuantSpec(bits=8, group_size=group_size)
        kv = QuantSpec(bits=8, group_size=kv_group or group_size) if quant_kv else None
        return cls(
            weights=QuantSpec(bits=bits, group_size=group_size),
            kv=kv,
            logits=logits,
        )


def resolve_quant(
    value: Union[None, str, QuantConfig],
    *,
    group_size: int = 64,
    quant_kv: bool = False,
    fp32_logits: bool = False,
) -> Optional[QuantConfig]:
    """Coerce a user-facing quant argument into a ``QuantConfig``.

    Accepts ``None``, a mode string (``"int8"``/``"int4"``/``"fp32"``) or
    an explicit :class:`QuantConfig` (returned unchanged — the keyword
    arguments only apply to mode strings).
    """
    if value is None:
        return None
    if isinstance(value, QuantConfig):
        return value
    if isinstance(value, str):
        return QuantConfig.from_mode(
            value,
            group_size=group_size,
            quant_kv=quant_kv,
            fp32_logits=fp32_logits,
        )
    raise TypeError(f"quant must be None, a mode string, or a QuantConfig: {value!r}")
