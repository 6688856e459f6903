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
    A batch of frames passes verts [B,V,3] with transforms [B,J,3,4].
    Weights already in verts' dtype are used as they are, not copied.
    """
    v = verts if isinstance(verts, dc.Tensor) else dc.Tensor(verts)
    if v.ndim not in (2, 3) or v.shape[-1] != 3:
        raise ValueError(f"vertices must be [V,3] or [B,V,3], got {v.shape}")
    lead = v.shape[:-2]
    if (transforms.ndim != v.ndim + 1 or transforms.shape[:-3] != lead
            or transforms.shape[-2:] != (3, 4)):
        raise ValueError(f"transforms must be {list(lead) + ['J', 3, 4]}, "
                         f"got {list(transforms.shape)}")
    V, J = v.shape[-2], transforms.shape[-3]
    if weights.shape != (V, J):
        raise ValueError(f"weights must be [{V},{J}], got {weights.shape}")
    out = dc.lbs_apply(weights.astype(v.dtype, copy=False),
                       transforms.astype(v.dtype), v)
    return out if v is verts else out.data
