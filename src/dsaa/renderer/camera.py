"""Pinhole camera: intrinsics, rigid extrinsics, and projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc

_UP = np.array([0.0, 1.0, 0.0])
_Z_MIN = 0.05


@dataclass(frozen=True)
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float
    rot: np.ndarray      # [3,3] world -> camera
    t: np.ndarray        # [3]
    height: int
    width: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        R = np.asarray(self.rot, dtype=np.float64)
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
            raise ValueError("camera rotation is not orthonormal")
        object.__setattr__(self, "rot", R)
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64))


def look_at(eye, target) -> tuple[np.ndarray, np.ndarray]:
    """World->camera rotation and translation for a camera at `eye` looking
    at `target`, +z into the scene, +y down the image (row direction)."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd /= np.linalg.norm(fwd)
    right = np.cross(fwd, _UP)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])
    return R, -R @ eye


def project(cam: Camera, verts: dc.Tensor):
    """Project [V,3] world vertices. Returns (screen xy [V,2] in pixel
    units, camera depth [V]). Pixel (i,j) has center (j+0.5, i+0.5).

    Depth used for division is clamped below at _Z_MIN so near-plane
    crossings do not blow up; callers must still reject all-behind meshes.
    """
    dt = verts.dtype
    Xc = dc.add(dc.matmul(verts, cam.rot.T.astype(dt)), cam.t.astype(dt))
    z = dc.getitem(Xc, (slice(None), 2))
    z_safe = dc.maximum(z, _Z_MIN)
    inv = dc.reciprocal(z_safe)
    sx = dc.add(dc.mul(dc.mul(dc.getitem(Xc, (slice(None), 0)), inv), cam.fx), cam.cx)
    sy = dc.add(dc.mul(dc.mul(dc.getitem(Xc, (slice(None), 1)), inv), cam.fy), cam.cy)
    return dc.stack([sx, sy], axis=1), z
