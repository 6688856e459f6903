"""Linear blend skinning: the one posing entry point."""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc


def lbs_apply(verts, transforms: np.ndarray, weights: np.ndarray):
    """Pose vertices: x_v -> sum_j w_vj (R_j x_v + t_j).

    verts may be a numpy array or a Tensor; both go through dc.lbs_apply
    in verts' dtype, an array as a constant. With a Tensor the result is
    a Tensor differentiable w.r.t. the vertices, with an array an array.
    The [J,3,4] transforms are constants: pose is an input, never fit.
    """
    v = verts if isinstance(verts, dc.Tensor) else dc.Tensor(verts)
    V, J = v.shape[0], transforms.shape[0]
    if v.shape != (V, 3):
        raise ValueError(f"vertices must be [V,3], got {v.shape}")
    if weights.shape != (V, J):
        raise ValueError(f"weights must be [{V},{J}], got {weights.shape}")
    out = dc.lbs_apply(weights.astype(v.dtype), transforms.astype(v.dtype), v)
    return out if v is verts else out.data
