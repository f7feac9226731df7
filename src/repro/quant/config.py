"""How every weight and KV byte is stored: the one precision decision.

A :class:`QuantConfig` answers one question for every weight tensor in
the model — *at what precision is it stored in HBM?* — and the same
question for the KV cache.  ``AcceleratorConfig.quant`` holds exactly
one, and nothing else in the stack chooses a width:

* :meth:`QuantConfig.datapath` (the accelerator's default) is the
  paper's int8 datapath: weights stream as bare ``bits``-wide integers
  whose per-group scales stay on chip;
* :meth:`QuantConfig.fp32` quantises nothing;
* the serving modes (:meth:`QuantConfig.from_mode`, ``--quant``) stream
  per-group float32 scales beside the integers and may quantise the KV
  cache too.

It is consumed in three places:

* the **functional** path (``SpeedLLMAccelerator``) fake-quantises the
  checkpoint per tensor so generated tokens reflect quantisation error;
* the **timing** path (``GraphBuilder``/``ProgramCompiler``) sizes
  streamed weight bytes per tensor and charges a dequant cost;
* the **checkpoint sidecar** (``repro.quant.format``) stores it with the
  packed tensors, and a reload must give back an equal config.

The config is fixed per ``AcceleratorConfig``, so each step compiler —
and the compile cache it owns — only ever sees one layout.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.llama.config import LlamaConfig
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
        embedding table).  ``None`` keeps them in float32.
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
    scales_on_chip:
        Where the weight scales live (a quantised KV cache always streams
        its own).  ``False`` (the serving modes):
        each group's float32 scale streams from HBM beside its integers,
        so an element costs ``spec.bytes_per_element`` and the MPE drain
        path pays a rescale stage.  ``True`` (:meth:`datapath`): only the
        integers stream, ``bits / 8`` bytes an element, and the scales
        held on chip cost nothing.  On-chip groups never pad, so a model
        quantises at the narrowed groups of :meth:`for_model`.
    """

    weights: Optional[QuantSpec] = field(default_factory=QuantSpec)
    kv: Optional[QuantSpec] = None
    logits: Optional[QuantSpec] = field(default_factory=QuantSpec)
    overrides: Tuple[Tuple[str, Optional[QuantSpec]], ...] = ()
    scales_on_chip: bool = False

    def __post_init__(self) -> None:
        # The on-chip datapath streams 16-bit weights too; streamed
        # scales pay off for 4- and 8-bit payloads only.
        widths = (4, 8, 16) if self.scales_on_chip else (4, 8)
        for role, spec in (("weight", self.weights), ("logits", self.logits)):
            if spec is not None and spec.bits not in widths:
                raise ValueError(
                    f"{role} quantisation supports "
                    f"{' or '.join(map(str, widths))} bits, got {spec.bits}"
                )
        if self.kv is not None and self.kv.bits != 8:
            raise ValueError(
                f"quantized KV supports 8-bit specs only, got {self.kv.bits}"
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
        if self.overrides:
            canon = canonical_tensor_name(name)
            for pattern, spec in self.overrides:
                if fnmatchcase(canon, pattern) or fnmatchcase(name, pattern):
                    return spec
        if classifier or name in _CLASSIFIER_NAMES:
            return self.logits
        return self.weights

    def bytes_per_element(self, spec: Optional[QuantSpec]) -> float:
        """Bytes one element stored at ``spec`` (one of this config's
        specs, ``None`` for float32) streams from HBM: its payload, plus
        the amortised scale when scales stream beside it."""
        if spec is None:
            return 4.0
        return spec.bits / 8.0 if self.scales_on_chip else spec.bytes_per_element

    def for_model(self, config: LlamaConfig) -> "QuantConfig":
        """The groups ``config``'s tensors are quantised at.

        Streamed groups pad a ragged last group, so the config is
        returned as it is.  On-chip groups never pad: each narrows to
        its largest size dividing both reduction widths of the model
        (``dim`` and the FFN hidden width).
        """
        if not self.scales_on_chip:
            return self
        widths = math.gcd(config.dim, config.resolved_hidden_dim())

        def narrowed(spec: Optional[QuantSpec]) -> Optional[QuantSpec]:
            if spec is None:
                return None
            return QuantSpec(spec.bits, math.gcd(spec.group_size, widths))

        return dataclasses.replace(
            self,
            weights=narrowed(self.weights),
            logits=narrowed(self.logits),
            overrides=tuple((p, narrowed(s)) for p, s in self.overrides),
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Short human-readable tag used in reports and bench rows."""
        if self.weights is None:
            parts = ["fp32"]
        elif self.scales_on_chip:
            parts = [f"w{self.weights.bits}"]
        else:
            parts = [f"int{self.weights.bits}g{self.weights.group_size}"]
        if self.kv is not None:
            parts.append(f"kv{self.kv.bits}")
        if self.logits is None:
            if self.weights is not None:
                parts.append("fp32head")
        elif self.logits != self.weights:
            parts.append(f"head{self.logits.bits}")
        if self.overrides:
            parts.append(f"ovr{len(self.overrides)}")
        return "+".join(parts)

    @property
    def streams_scales(self) -> bool:
        """Whether some tensor streams per-group scales from HBM — the
        serving-level quantisation a serve report names.  Neither
        :meth:`fp32` nor :meth:`datapath` does."""
        if self.kv is not None:
            return True
        specs = (self.weights, self.logits, *(s for _, s in self.overrides))
        return not self.scales_on_chip and any(s is not None for s in specs)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "weights": _spec_to_dict(self.weights),
            "kv": _spec_to_dict(self.kv),
            "logits": _spec_to_dict(self.logits),
            "overrides": [
                {"pattern": p, "spec": _spec_to_dict(s)} for p, s in self.overrides
            ],
        }
        # Written only when set: a serving-mode sidecar header stays
        # byte-identical to one written without the field, and such a
        # file loads as streamed.
        if self.scales_on_chip:
            data["scales_on_chip"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantConfig":
        if "weights" not in data:
            raise ValueError("quant config requires a weights entry")
        return cls(
            weights=_spec_from_dict(data["weights"]),
            kv=_spec_from_dict(data.get("kv")),
            logits=_spec_from_dict(data.get("logits")),
            overrides=tuple(
                (entry["pattern"], _spec_from_dict(entry.get("spec")))
                for entry in data.get("overrides", ())
            ),
            scales_on_chip=bool(data.get("scales_on_chip", False)),
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def datapath(cls, bits: int = 8) -> "QuantConfig":
        """The paper's datapath, the accelerator's default: every 2-D
        weight, classifier included, streams as bare ``bits``-wide
        integers with its scales on chip; the KV cache stays float32."""
        spec = QuantSpec(bits=bits, group_size=64)
        return cls(weights=spec, logits=spec, scales_on_chip=True)

    @classmethod
    def fp32(cls) -> "QuantConfig":
        """Full precision: a config that quantises nothing."""
        return cls(weights=None, logits=None)

    @classmethod
    def from_mode(
        cls,
        mode: str,
        *,
        group_size: int = 64,
        quant_kv: bool = False,
        fp32_logits: bool = False,
        kv_group: Optional[int] = None,
    ) -> "QuantConfig":
        """Build a config from a CLI-style mode string.

        ``"fp32"``/``"none"`` quantise no weight (and the KV cache only
        with ``quant_kv``).  INT4 mode keeps the logits head at INT8 —
        its error otherwise dominates token disagreement.
        """
        mode = mode.lower()
        kv = QuantSpec(bits=8, group_size=kv_group or group_size) if quant_kv else None
        if mode in ("fp32", "none", "off"):
            return cls(weights=None, kv=kv, logits=None)
        if mode not in ("int8", "int4"):
            raise ValueError(f"unknown quantisation mode {mode!r} (int8, int4, fp32)")
        bits = 8 if mode == "int8" else 4
        logits = None if fp32_logits else QuantSpec(bits=8, group_size=group_size)
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

    Accepts ``None`` (returned as is: the accelerator's default,
    :meth:`QuantConfig.datapath`), a mode string
    (``"int8"``/``"int4"``/``"fp32"``) or an explicit
    :class:`QuantConfig` (returned unchanged — the keyword arguments only
    apply to mode strings).
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
