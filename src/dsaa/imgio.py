"""Netpbm image I/O: PPM (P6) for RGB, PGM (P5) for grayscale at maxval
255 or 65535. Round-trips are bit-exact.

Float images are exchanged in [0,1]: writers quantize with
round(x * maxval) after clipping, readers divide by maxval. 16-bit
samples are big-endian per the netpbm convention.
"""

from __future__ import annotations

import numpy as np


def _read_header(f, magic: bytes, nfields: int):
    if f.read(2) != magic:
        raise ValueError(f"expected {magic.decode()} file")
    fields = []
    while len(fields) < nfields:
        line = f.readline()
        if not line:
            raise ValueError("truncated netpbm header")
        body = line.split(b"#", 1)[0]
        fields.extend(int(tok) for tok in body.split())
    return fields


def write_ppm(path, img: np.ndarray) -> None:
    """img: float [3,H,W] in [0,1] or uint8 [3,H,W]."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError("PPM writer expects [3,H,W]")
    if img.dtype == np.uint8:
        q = img
    else:
        q = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    _, H, W = q.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{W} {H}\n255\n".encode())
        f.write(q.transpose(1, 2, 0).tobytes())


def read_ppm(path, as_float: bool = True):
    with open(path, "rb") as f:
        W, H, maxval = _read_header(f, b"P6", 3)
        if maxval != 255:
            raise ValueError(f"unsupported PPM maxval {maxval}")
        raw = f.read(W * H * 3)
    if len(raw) != W * H * 3:
        raise ValueError("truncated PPM payload")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(H, W, 3).transpose(2, 0, 1)
    return img.astype(np.float64) / 255.0 if as_float else img.copy()


def write_pgm(path, img: np.ndarray, maxval: int = 255) -> None:
    """img: float [H,W] in [0,1], or uint8/uint16 [H,W] stored as-is."""
    if img.ndim != 2:
        raise ValueError("PGM writer expects [H,W]")
    if img.dtype == np.uint8:
        q, maxval = img, 255
    elif img.dtype == np.uint16:
        q, maxval = img, 65535
    elif maxval == 255:
        q = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    elif maxval == 65535:
        q = np.round(np.clip(img, 0.0, 1.0) * 65535.0).astype(np.uint16)
    else:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    H, W = q.shape
    payload = q.astype(">u2").tobytes() if maxval == 65535 else q.tobytes()
    with open(path, "wb") as f:
        f.write(f"P5\n{W} {H}\n{maxval}\n".encode())
        f.write(payload)


def read_pgm(path, as_float: bool = True):
    with open(path, "rb") as f:
        W, H, maxval = _read_header(f, b"P5", 3)
        if maxval == 255:
            dt, nb = np.uint8, 1
        elif maxval == 65535:
            dt, nb = np.dtype(">u2"), 2
        else:
            raise ValueError(f"unsupported PGM maxval {maxval}")
        raw = f.read(W * H * nb)
    if len(raw) != W * H * nb:
        raise ValueError("truncated PGM payload")
    img = np.frombuffer(raw, dtype=dt).reshape(H, W)
    if as_float:
        return img.astype(np.float64) / maxval
    return img.astype(np.uint16 if maxval == 65535 else np.uint8)

