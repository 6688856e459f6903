"""Linear blend skinning: the one posing function, itself the tape node."""

from __future__ import annotations

import numpy as np

from ..diffcore import Tensor
from ..diffcore.tensor import make_node


def blend_matrices(weights: np.ndarray, transforms: np.ndarray) -> np.ndarray:
    """Per-vertex blended transforms M_v = sum_j w[v,j] T_j: [..., V,3,4]
    for weights [V,J] and transforms [..., J,3,4], in their common dtype.
    A batch of poses is one stacked matmul, which forms each pose's
    matrices by the same product one pose alone would."""
    J = weights.shape[1]
    T = transforms.reshape(transforms.shape[:-3] + (J, 12))
    return np.matmul(weights, T).reshape(T.shape[:-2] + (weights.shape[0], 3, 4))


# lbs_apply's three-term sums, in the order np.einsum("vrc,vc->vr") and
# np.einsum("vrc,vr->vc") add them over C-contiguous vertices: the forward
# adds float64 products as (0 + 2) + 1 and float32 ones in order, the
# backward both in order
_FORWARD_ORDER = {np.dtype(np.float64): (0, 2, 1), np.dtype(np.float32): (0, 1, 2)}


def lbs_apply(verts, transforms: np.ndarray, weights: np.ndarray):
    """Pose vertices: x_v -> sum_j w_vj (R_j x_v + t_j).

    verts may be a numpy array or a Tensor; both are posed in verts'
    dtype by one formula. With a Tensor the result is a Tensor
    differentiable w.r.t. the vertices, with an array an array. The
    [J,3,4] transforms are constants: pose is an input, never fit. A
    batch of frames passes verts [B,V,3] with transforms [B,J,3,4], each
    frame under its own pose. Weights already in verts' dtype are used as
    they are, not copied.

    The blended matrices M_v are formed once (`blend_matrices`); the
    products with them are written out per component and summed in
    np.einsum's order, so the bytes are the einsum's.
    """
    v = verts if isinstance(verts, Tensor) else Tensor(verts)
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
    M = blend_matrices(weights.astype(v.dtype, copy=False),
                       transforms.astype(v.dtype))
    x = v.data
    i, j, k = _FORWARD_ORDER[x.dtype]
    out = np.stack([((M[..., r, i] * x[..., i] + M[..., r, j] * x[..., j])
                     + M[..., r, k] * x[..., k]) + M[..., r, 3]
                    for r in range(3)], axis=-1)

    def bw(g, needs):
        return (np.stack([(M[..., 0, c] * g[..., 0] + M[..., 1, c] * g[..., 1])
                          + M[..., 2, c] * g[..., 2] for c in range(3)], axis=-1),)

    out = make_node(out, (v,), bw, "lbs_apply")
    return out if v is verts else out.data
