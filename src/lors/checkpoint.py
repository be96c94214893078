"""Binary tensor checkpoints.

Layout: 4-byte magic "LORS", format version as u32 little-endian, manifest
length as u64 little-endian, the manifest itself (UTF-8 JSON: a list of
{name, shape, dtype, offset} with offsets relative to the payload start),
then the payload of raw little-endian IEEE-754 doubles in row-major order.

Loading validates magic, version, manifest structure, dtype, and that tensor
extents stay inside the payload without overlapping. Round-trips are bitwise
exact. Saving refuses a non-finite tensor before it opens the file.
"""

from __future__ import annotations

import json
import struct
from typing import Dict

import numpy as np

from .errors import CheckpointFormatError
from .matrix import DenseMatrix, check_finite

MAGIC = b"LORS"
VERSION = 1

_HEADER = struct.Struct("<4sIQ")


def save_checkpoint(path, tensors: Dict[str, DenseMatrix]) -> None:
    if not tensors:
        raise CheckpointFormatError("refusing to write a checkpoint with no tensors")
    manifest = []
    chunks = []
    offset = 0
    for name, m in tensors.items():
        if not isinstance(name, str) or not name:
            raise CheckpointFormatError(f"tensor name must be a nonempty string, got {name!r}")
        check_finite(m.data, f"tensor {name!r}")
        raw = np.ascontiguousarray(m.data, dtype="<f8").tobytes()
        manifest.append({
            "name": name,
            "shape": [m.rows, m.cols],
            "dtype": "f64",
            "offset": offset,
        })
        chunks.append(raw)
        offset += len(raw)
    manifest_bytes = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(manifest_bytes)))
        fh.write(manifest_bytes)
        for chunk in chunks:
            fh.write(chunk)


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass, so ``true`` must be refused."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_checkpoint(path) -> Dict[str, DenseMatrix]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise CheckpointFormatError(f"checkpoint {path} is truncated before the header")
    magic, version, manifest_len = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported format version {version}, expected {VERSION}")
    manifest_end = _HEADER.size + manifest_len
    if manifest_end > len(blob):
        raise CheckpointFormatError("manifest length exceeds file size")
    try:
        manifest = json.loads(blob[_HEADER.size:manifest_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"manifest is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, list):
        raise CheckpointFormatError("manifest must be a JSON list")

    payload = blob[manifest_end:]
    tensors: Dict[str, DenseMatrix] = {}
    spans = []
    for entry in manifest:
        if not isinstance(entry, dict):
            raise CheckpointFormatError(f"manifest entry is not an object: {entry!r}")
        missing = {"name", "shape", "dtype", "offset"} - set(entry)
        if missing:
            raise CheckpointFormatError(f"manifest entry missing fields {sorted(missing)}")
        name = entry["name"]
        shape = entry["shape"]
        if entry["dtype"] != "f64":
            raise CheckpointFormatError(
                f"tensor {name!r} has dtype {entry['dtype']!r}, only f64 is supported"
            )
        if (not isinstance(shape, list) or len(shape) != 2
                or not all(_is_int(d) and d > 0 for d in shape)):
            raise CheckpointFormatError(f"tensor {name!r} has invalid shape {shape!r}")
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor name {name!r}")
        offset = entry["offset"]
        nbytes = shape[0] * shape[1] * 8
        if not _is_int(offset) or offset < 0 or offset + nbytes > len(payload):
            raise CheckpointFormatError(
                f"tensor {name!r} extent [{offset}, {offset + nbytes}) falls outside "
                f"the {len(payload)}-byte payload"
            )
        spans.append((offset, offset + nbytes, name))
        arr = np.frombuffer(payload, dtype="<f8", count=shape[0] * shape[1],
                            offset=offset).reshape(shape)
        tensors[name] = DenseMatrix(arr)

    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise CheckpointFormatError(f"tensors {n0!r} and {n1!r} overlap in the payload")
    return tensors


def model_weight_names(tensors: Dict[str, DenseMatrix]) -> list[str]:
    """Names of the 'layers.<i>.weight' tensors, ordered by layer index.

    Indices must be contiguous from zero.
    """
    found = {}
    for name in tensors:
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "layers" and parts[2] == "weight":
            try:
                found[int(parts[1])] = name
            except ValueError:
                continue
    if not found:
        raise CheckpointFormatError("checkpoint holds no 'layers.<i>.weight' tensors")
    indices = sorted(found)
    if indices != list(range(len(indices))):
        raise CheckpointFormatError(f"layer indices are not contiguous from 0: {indices}")
    return [found[i] for i in indices]
