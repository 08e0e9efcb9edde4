"""Binary container for named float64 tensors with an embedded JSON manifest.

Layout (all integers little-endian):

    8 bytes   magic ``FSSMTNS1``
    u32       container version
    u64       manifest length, followed by UTF-8 JSON manifest
    u32       tensor count
    per tensor: u16 name length + name bytes, u8 ndim, u32 per dim,
                float64 data (C order)
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import IoError, ParseError

MAGIC = b"FSSMTNS1"
VERSION = 1


def save_container(path, tensors: dict[str, np.ndarray], manifest: dict) -> None:
    """Write tensors + manifest atomically (temp file then rename)."""
    path = Path(path)
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", VERSION),
              struct.pack("<Q", len(manifest_bytes)), manifest_bytes,
              struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f8")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # keeps ndim >= 1 inputs as-is
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(b"".join(chunks))
        tmp.replace(path)
    except OSError as exc:
        raise IoError(f"cannot write checkpoint {path}: {exc}") from exc


def load_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a tensor container; a bad or truncated layout or trailing bytes raise ParseError."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(data) < 24 or data[:8] != MAGIC:
        raise ParseError(f"{path}: not a flowssm tensor container")
    (version,) = struct.unpack_from("<I", data, 8)
    if version != VERSION:
        raise ParseError(f"{path}: unsupported container version {version}")
    try:
        return _parse_body(memoryview(data), 12)
    except ValueError as exc:  # includes bad UTF-8 and JSON
        raise ParseError(f"{path}: corrupt container: {exc}") from exc


def _parse_body(data: memoryview, offset: int) -> tuple[dict[str, np.ndarray], dict]:
    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(data):
            raise ValueError(f"truncated: {offset + n} bytes needed, {len(data)} present")
        offset += n
        return data[offset - n : offset]

    (manifest_len,) = struct.unpack("<Q", take(8))
    manifest = json.loads(bytes(take(manifest_len)).decode("utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError("manifest is not a JSON object")
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        tensors[name] = arr.reshape(shape).astype(np.float64)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} bytes after the last tensor")
    return tensors, manifest
