"""Brute-force references for the visibility tests: any-hit over every
triangle, and hemisphere visibility at one point without acceleration.
Both use the library's own ray/triangle predicate, so the grid walk and
the bake are compared with the same arithmetic. Test oracles only;
production code calls ``UniformGrid`` and ``compute_ao``.
"""

from __future__ import annotations

import numpy as np

from dsaa.occlusion import build_frames, hemisphere_dirs, stratified_square
from dsaa.occlusion.ao import _corners, _mt_any_hit, _triangles
from dsaa.rng import stream


def ray_any_hit(origins, dirs, verts, faces, chunk=256):
    """Brute-force any-hit over every triangle; the grid's reference."""
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    a, e1, e2, tol = _triangles(_corners(verts, faces))
    F = len(tol)
    hit = np.zeros(len(origins), dtype=bool)
    if F == 0:
        return hit
    for s in range(0, len(origins), chunk):
        o = origins[s:s + chunk].T
        d = dirs[s:s + chunk].T
        r = o.shape[1]
        h = _mt_any_hit(np.repeat(o, F, axis=1), np.repeat(d, F, axis=1),
                        np.tile(a, r), np.tile(e1, r), np.tile(e2, r),
                        np.tile(tol, r))
        hit[s:s + chunk] = h.reshape(r, F).any(axis=1)
    return hit


def ao_oracle(point, normal, verts, faces, n_rays: int, seed: int = 0) -> float:
    """Stratified hemisphere visibility at one point, no acceleration;
    the ray origin is offset along the normal by 1e-4 of the mesh's bbox
    diagonal, as in the bake."""
    point = np.asarray(point, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    if abs(np.linalg.norm(normal) - 1.0) > 1e-6:
        raise ValueError("oracle requires a unit normal")
    verts = np.asarray(verts, dtype=np.float64)
    offset = 1e-4 * np.linalg.norm(verts.max(axis=0) - verts.min(axis=0))
    rng = stream(seed, "ao-oracle")
    local = hemisphere_dirs(stratified_square(rng, n_rays))
    d = local @ build_frames(normal[None])[0].T
    o = np.broadcast_to(point + offset * normal, d.shape)
    return float(1.0 - ray_any_hit(o, d, verts, faces).mean())
