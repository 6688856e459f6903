"""Linear blend skinning: posing and exact unposing."""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc


def _check_shapes(verts, transforms: np.ndarray, weights):
    V = verts.shape[0]
    J = transforms.shape[0]
    if verts.shape != (V, 3):
        raise ValueError(f"vertices must be [V,3], got {verts.shape}")
    if weights.shape != (V, J):
        raise ValueError(f"weights must be [{V},{J}], got {weights.shape}")


def lbs_apply(verts, transforms: np.ndarray, weights: np.ndarray):
    """Pose vertices: x_v -> sum_j w_vj (R_j x_v + t_j).

    The one posing entry point. verts may be a numpy array (fast path) or
    a Tensor; with a Tensor the result is differentiable w.r.t. the
    vertices. The [J,3,4] transforms are constants: pose is an input,
    never fit.
    """
    vd = verts.data if isinstance(verts, dc.Tensor) else np.asarray(verts)
    _check_shapes(vd, transforms, weights)
    if isinstance(verts, dc.Tensor):
        return dc.lbs_apply(weights.astype(verts.dtype),
                            transforms.astype(verts.dtype), verts)
    M = np.tensordot(weights, transforms, axes=([1], [0]))
    return np.einsum("vrc,vc->vr", M[:, :, :3], vd) + M[:, :, 3]


def lbs_unpose(posed: np.ndarray, transforms: np.ndarray, weights: np.ndarray):
    """Exact inverse of lbs_apply via per-vertex inversion of the blended
    transform. Raises on near-singular blends (condition number > 1e8),
    naming the first offending vertex."""
    posed = np.asarray(posed, dtype=np.float64)
    _check_shapes(posed, transforms, weights)
    M = np.tensordot(weights, transforms, axes=([1], [0]))   # [V,3,4]
    A = M[:, :, :3]
    sv = np.linalg.svd(A, compute_uv=False)
    cond = sv[:, 0] / np.maximum(sv[:, -1], 1e-300)
    bad = np.nonzero(cond > 1e8)[0]
    if bad.size:
        v = int(bad[0])
        raise ValueError(f"singular blended transform at vertex {v} "
                         f"(condition number {cond[v]:.3e})")
    return np.linalg.solve(A, (posed - M[:, :, 3])[:, :, None])[:, :, 0]
