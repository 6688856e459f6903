"""Netpbm image I/O: PPM (P6) for RGB, PGM (P5) for grayscale, both at
maxval 255. Round-trips are bit-exact.

Float images are exchanged in [0,1]: writers quantize with
round(x * 255) after clipping, readers divide by 255.
"""

from __future__ import annotations

import numpy as np


def _quantize(img: np.ndarray) -> np.ndarray:
    if img.dtype == np.uint8:
        return img
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def _write(path, magic: str, hwc: np.ndarray) -> None:
    H, W = hwc.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{magic}\n{W} {H}\n255\n".encode())
        f.write(hwc.tobytes())


def _read(path, magic: bytes, kind: str, channels: int, as_float: bool):
    """Samples [H,W,channels] of a maxval-255 file: float in [0,1], or a
    uint8 copy."""
    with open(path, "rb") as f:
        if f.read(2) != magic:
            raise ValueError(f"expected {magic.decode()} file")
        fields = []
        while len(fields) < 3:
            line = f.readline()
            if not line:
                raise ValueError("truncated netpbm header")
            fields.extend(int(tok) for tok in line.split(b"#", 1)[0].split())
        W, H, maxval = fields
        if maxval != 255:
            raise ValueError(f"unsupported {kind} maxval {maxval}")
        raw = f.read(W * H * channels)
    if len(raw) != W * H * channels:
        raise ValueError(f"truncated {kind} payload")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(H, W, channels)
    return img.astype(np.float64) / 255.0 if as_float else img.copy()


def write_ppm(path, img: np.ndarray) -> None:
    """img: float [3,H,W] in [0,1] or uint8 [3,H,W]."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError("PPM writer expects [3,H,W]")
    _write(path, "P6", _quantize(img).transpose(1, 2, 0))


def write_pgm(path, img: np.ndarray) -> None:
    """img: float [H,W] in [0,1] or uint8 [H,W]."""
    if img.ndim != 2:
        raise ValueError("PGM writer expects [H,W]")
    _write(path, "P5", _quantize(img))


def read_ppm(path, as_float: bool = True):
    """[3,H,W]: float in [0,1], or uint8 with as_float=False."""
    return _read(path, b"P6", "PPM", 3, as_float).transpose(2, 0, 1)


def read_pgm(path, as_float: bool = True):
    """[H,W]: float in [0,1], or uint8 with as_float=False."""
    return _read(path, b"P5", "PGM", 1, as_float)[..., 0]
