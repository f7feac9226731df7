"""GGUF-style single-file sidecar format for quantised checkpoints.

Layout of a ``.slq`` file::

    bytes 0-3   magic ``SLQ1``
    bytes 4-7   little-endian uint32 format version (currently 1)
    bytes 8-11  little-endian uint32 JSON header length
    ...         UTF-8 JSON header
    ...         payload blob

The JSON header records the model config, the quant config, and a
tensor directory (name, logical shape, storage spec, payload byte
counts) in canonical checkpoint order.  The payload concatenates, per
tensor, the integer data (int8 raw, or int4 packed two-per-byte) and
the float32 group scales; fp32 tensors are stored raw.  Wider codes
have no encoding: writing or reading one raises ``ValueError``.  Loading
reconstructs :class:`QuantizedTensor`s directly from the integer payload
— no float32 weight matrix is materialised.  :func:`convert_to_sidecar`
is the whole conversion: quantise, write, reload and check the reload.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from repro.llama.checkpoint import Checkpoint
from repro.llama.config import LlamaConfig
from repro.llama.quantization import (
    QuantizedTensor,
    pack_int4,
    unpack_int4,
)

from .config import QuantConfig, _spec_from_dict, _spec_to_dict
from .convert import QuantizedCheckpoint, TensorLike, quantize_checkpoint

__all__ = ["save_quantized", "load_quantized", "convert_to_sidecar",
           "FORMAT_MAGIC", "FORMAT_VERSION"]

FORMAT_MAGIC = b"SLQ1"
FORMAT_VERSION = 1
_PREAMBLE = "<4sII"  # magic, version, header length
_PREAMBLE_SIZE = struct.calcsize(_PREAMBLE)


def _tensor_payload(tensor: TensorLike) -> Tuple[Dict[str, Any], List[bytes]]:
    """Return the directory entry and payload chunks for one tensor."""
    if isinstance(tensor, QuantizedTensor):
        spec = tensor.spec
        if spec.bits > 8:
            raise ValueError(f"cannot write {spec} to a .slq file: it stores "
                             "codes as int8 or packed int4")
        if spec.bits == 4:
            q_bytes = pack_int4(tensor.q).tobytes()
        else:
            q_bytes = np.ascontiguousarray(tensor.q, dtype=np.int8).tobytes()
        scale_bytes = np.ascontiguousarray(tensor.scales, dtype=np.float32).tobytes()
        entry = {
            "shape": list(tensor.original_shape),
            "spec": _spec_to_dict(spec),
            "q_nbytes": len(q_bytes),
            "scales_nbytes": len(scale_bytes),
        }
        return entry, [q_bytes, scale_bytes]
    raw = np.ascontiguousarray(tensor, dtype=np.float32).tobytes()
    entry = {
        "shape": list(np.asarray(tensor).shape),
        "spec": None,
        "q_nbytes": len(raw),
        "scales_nbytes": 0,
    }
    return entry, [raw]


def save_quantized(
    checkpoint: QuantizedCheckpoint, path: Union[str, Path]
) -> Path:
    """Write ``checkpoint`` as a ``.slq`` sidecar file."""
    path = Path(path)
    directory: List[Dict[str, Any]] = []
    chunks: List[bytes] = []
    for name, tensor in checkpoint.items():
        entry, payload = _tensor_payload(tensor)
        entry["name"] = name
        directory.append(entry)
        chunks.extend(payload)
    header = json.dumps(
        {
            "model": checkpoint.config.to_dict(),
            "quant": checkpoint.quant.to_dict(),
            "tensors": directory,
        },
        sort_keys=True,
    ).encode("utf-8")
    with path.open("wb") as fh:
        fh.write(struct.pack(_PREAMBLE, FORMAT_MAGIC, FORMAT_VERSION, len(header)))
        fh.write(header)
        for chunk in chunks:
            fh.write(chunk)
    return path


def _read_tensor(
    entry: Dict[str, Any], raw: bytes, offset: int
) -> Tuple[TensorLike, int]:
    shape = tuple(int(s) for s in entry["shape"])
    spec = _spec_from_dict(entry.get("spec"))
    q_nbytes = int(entry["q_nbytes"])
    scales_nbytes = int(entry["scales_nbytes"])
    if spec is None:
        tensor: TensorLike = (
            np.frombuffer(raw, dtype=np.float32, count=q_nbytes // 4, offset=offset)
            .reshape(shape)
            .copy()
        )
        return tensor, offset + q_nbytes
    if spec.bits > 8:
        raise ValueError(f"{spec} has no .slq encoding (int8 or int4 codes)")
    padded_last = spec.padded_elements(shape[-1])
    padded_shape = shape[:-1] + (padded_last,)
    n_padded = int(np.prod(padded_shape))
    if spec.bits == 4:
        packed = np.frombuffer(raw, dtype=np.uint8, count=q_nbytes, offset=offset)
        q = unpack_int4(packed, n_padded).reshape(padded_shape)
    else:
        q = (
            np.frombuffer(raw, dtype=np.int8, count=n_padded, offset=offset)
            .reshape(padded_shape)
            .copy()
        )
    offset += q_nbytes
    groups = spec.groups_for(shape[-1])
    scales = (
        np.frombuffer(
            raw, dtype=np.float32, count=scales_nbytes // 4, offset=offset
        )
        .reshape(shape[:-1] + (groups,))
        .copy()
    )
    offset += scales_nbytes
    return (
        QuantizedTensor(q=q, scales=scales, spec=spec, original_shape=shape),
        offset,
    )


def load_quantized(path: Union[str, Path]) -> QuantizedCheckpoint:
    """Read a ``.slq`` file back into a :class:`QuantizedCheckpoint`.

    A malformed file raises :class:`ValueError` naming the file and the
    byte offset being read when it was found out.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _PREAMBLE_SIZE:
        raise ValueError(f"{path} is too small to be a quantized checkpoint "
                         f"({len(raw)} bytes, at byte 0)")
    magic, version, header_len = struct.unpack(_PREAMBLE, raw[:_PREAMBLE_SIZE])
    if magic != FORMAT_MAGIC:
        raise ValueError(f"{path} is not a quantized checkpoint "
                         f"(bad magic {magic!r} at byte 0)")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version} at byte 4")
    offset = _PREAMBLE_SIZE
    try:
        header_end = _PREAMBLE_SIZE + header_len
        if header_end > len(raw):
            raise ValueError(f"a {header_len}-byte header overruns the "
                             f"{len(raw)}-byte file")
        header = json.loads(raw[_PREAMBLE_SIZE:header_end].decode("utf-8"))
        config = LlamaConfig.from_dict(header["model"])
        quant = QuantConfig.from_dict(header["quant"])
        tensors: Dict[str, TensorLike] = {}
        offset = header_end
        for entry in header["tensors"]:
            tensor, end = _read_tensor(entry, raw, offset)
            tensors[entry["name"]] = tensor
            offset = end
        return QuantizedCheckpoint(config=config, quant=quant, tensors=tensors)
    except (KeyError, IndexError, TypeError, AttributeError, OverflowError,
            ValueError) as exc:
        raise ValueError(f"{path}: malformed quantized checkpoint at byte "
                         f"{offset}: {exc!r}") from exc


def convert_to_sidecar(checkpoint: Checkpoint, quant: QuantConfig,
                       path: Union[str, Path]) -> Dict[str, Any]:
    """Quantise ``checkpoint`` into a ``.slq`` file at ``path``, read it back
    and return the ``QUANTIZE_v1`` summary; its ``"roundtrip"`` passes when
    the reload has the same byte accounting, quant config and tensor count."""
    quantized = quantize_checkpoint(checkpoint, quant)
    path = save_quantized(quantized, path)
    reloaded = load_quantized(path)
    roundtrip = (reloaded.nbytes == quantized.nbytes
                 and reloaded.quant == quant
                 and len(reloaded.tensors) == len(quantized.tensors))
    return {
        "schema": "QUANTIZE_v1",
        "model": checkpoint.config.name,
        "path": str(path),
        "file_bytes": path.stat().st_size,
        "roundtrip": "pass" if roundtrip else "fail",
        **quantized.summary(),
    }
