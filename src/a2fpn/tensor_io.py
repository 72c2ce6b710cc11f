"""A2TSR tensor files and manifest-based parameter directories.

Wire format of one tensor:

    bytes 0..5   magic ``A2TSR\\0``
    byte  6      version, 0x01
    bytes 7..10  little-endian uint32 header length L
    bytes 11..   UTF-8 JSON header ``{"dtype": "f32"|"f64", "shape": [...]}``
    after L      raw row-major little-endian scalar payload

A parameter checkpoint is a directory of ``<symbol>.a2tsr`` files plus a
``manifest.json`` listing the symbol names, e.g. ``mgc.l3.psi.weight``.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .tensor_core import DTYPES, dtype_name

MAGIC = b"A2TSR\0"
VERSION = 1
_PREFIX = 11  # magic, version byte and header length
MANIFEST_NAME = "manifest.json"


class TensorFormatError(ValueError):
    """Corrupt or mistyped A2TSR payload."""


def save_tensor(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    header = json.dumps({"dtype": dtype_name(arr), "shape": list(arr.shape)}).encode("utf-8")
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload)


def load_tensor(path) -> np.ndarray:
    """Read one A2TSR file; every malformed file raises TensorFormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:6] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic, not an A2TSR file")
    if len(blob) < _PREFIX:
        raise TensorFormatError(f"{path}: truncated before the header length")
    if blob[6] != VERSION:
        raise TensorFormatError(f"{path}: unsupported version {blob[6]}")
    (hlen,) = struct.unpack("<I", blob[7:_PREFIX])
    if hlen > len(blob) - _PREFIX:
        raise TensorFormatError(f"{path}: header length {hlen} runs past the end of the file")
    try:
        header = json.loads(blob[_PREFIX : _PREFIX + hlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both are
        raise TensorFormatError(f"{path}: header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict) or not isinstance(header.get("dtype"), str) \
            or header["dtype"] not in DTYPES:
        raise TensorFormatError(f"{path}: header names no supported dtype")
    shape = header.get("shape")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise TensorFormatError(f"{path}: shape {shape!r} is not a list of non-negative ints")
    dtype = np.dtype(DTYPES[header["dtype"]])
    payload = blob[_PREFIX + hlen :]
    want = math.prod(shape)
    if len(payload) != want * dtype.itemsize:
        raise TensorFormatError(f"{path}: payload holds {len(payload)} bytes, header says "
                                f"{want} scalars of {dtype.itemsize}")
    arr = np.frombuffer(payload, dtype=dtype.newbyteorder("<"), count=want)
    try:
        return arr.astype(dtype).reshape(shape)
    except ValueError as exc:  # more dimensions than numpy supports
        raise TensorFormatError(f"{path}: shape {shape} ({exc})") from None


def save_params(dirpath, params: dict) -> None:
    """Write every named array to ``<dir>/<name>.a2tsr`` plus a manifest."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    names = sorted(params)
    for name in names:
        save_tensor(d / f"{name}.a2tsr", params[name])
    manifest = {"format": "a2tsr-manifest", "version": VERSION, "symbols": names}
    (d / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


def load_params(dirpath) -> dict:
    d = Path(dirpath)
    manifest = json.loads((d / MANIFEST_NAME).read_text(encoding="utf-8"))
    return {name: load_tensor(d / f"{name}.a2tsr") for name in manifest["symbols"]}
