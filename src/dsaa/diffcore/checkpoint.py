"""Versioned binary array container.

Layout: the 5-byte magic b"DSAA1", then one record per array:

    uint32 LE   name length in bytes
    bytes       name, utf-8
    uint8       dtype tag: 0 = float64, 1 = float32
    uint32 LE   rank
    uint32 LE   per dimension
    bytes       raw array data, C order, little endian

Records run to end of file; a file that ends inside a record is
rejected as truncated. Writing is deterministic (insertion order of the
dict), so equal state produces byte-identical files.
"""

from __future__ import annotations

import struct

import numpy as np

from .. import keyvalue

MAGIC = b"DSAA1"
_TAGS = {np.dtype("<f8"): 0, np.dtype("<f4"): 1}
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Replace the container at path whole: records built in memory go to
    `keyvalue.write_atomic`, so a refused dtype or a kill writes nothing."""
    parts = [MAGIC]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.newbyteorder("<") not in _TAGS:
            raise ValueError(f"{name}: unsupported dtype {arr.dtype}")
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        nb = name.encode("utf-8")
        parts += [struct.pack("<I", len(nb)), nb,
                  struct.pack("<B", _TAGS[le.dtype]),
                  struct.pack(f"<I{le.ndim}I", le.ndim, *le.shape),
                  le.tobytes()]
    keyvalue.write_atomic(path, b"".join(parts))


def _read(f, n: int, path, what: str) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise ValueError(f"{path}: truncated record {what}")
    return raw


def load_arrays(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        if f.read(5) != MAGIC:
            raise ValueError(f"{path}: bad magic, not a DSAA1 container")
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) != 4:
                raise ValueError(f"{path}: truncated record header")
            (nlen,) = struct.unpack("<I", head)
            name = _read(f, nlen, path, "header").decode("utf-8")
            what = f"for {name!r}"
            (tag,) = struct.unpack("<B", _read(f, 1, path, what))
            if tag not in _DTYPES:
                raise ValueError(f"{path}: unknown dtype tag {tag} for {name!r}")
            (rank,) = struct.unpack("<I", _read(f, 4, path, what))
            shape = tuple(struct.unpack("<I", _read(f, 4, path, what))[0]
                          for _ in range(rank))
            dt = _DTYPES[tag]
            n = int(np.prod(shape)) if shape else 1
            raw = _read(f, n * dt.itemsize, path, what)
            out[name] = np.frombuffer(raw, dtype=dt).reshape(shape).copy()
    return out
