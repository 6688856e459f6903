"""Driving-signal container and spatial tiling."""

from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc

__all__ = ["DrivingSignal", "tile2d"]


@dataclass(frozen=True)
class DrivingSignal:
    """Pose scalars, facial code, and a unit view direction."""

    theta: np.ndarray
    face: np.ndarray
    view: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        face = np.asarray(self.face, dtype=np.float64)
        view = np.asarray(self.view, dtype=np.float64)
        for arr, label in ((theta, "theta"), (face, "face"), (view, "view")):
            if arr.ndim != 1:
                raise ValueError(f"{label} must be a flat vector")
            if not np.isfinite(arr).all():
                raise ValueError(f"{label} has non-finite entries")
        if view.shape != (3,) or abs(np.linalg.norm(view) - 1.0) > 1e-6:
            raise ValueError("view must be a unit 3-vector")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "view", view)


def tile2d(x: dc.Tensor, h: int, w: int) -> dc.Tensor:
    """Repeat a length-N Tensor over an h*w grid -> [N,h,w]; leading axes
    ([B,N], a batch) are kept -> [B,N,h,w]."""
    shape = tuple(x.shape)
    return dc.broadcast_to(dc.reshape(x, shape + (1, 1)), shape + (h, w))
