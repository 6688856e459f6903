"""Reference UV atlas for the atlas tests: the per-face loop that
``dsaa.body.build_atlas`` replaced. Each face in order rasterizes its
clipped texel bbox; a texel goes to the first face whose UV triangle
covers its center, and a later claimant that shares fewer than two
vertices with the owner is an overlap error. The array build must give
the same ``face_idx`` and ``bary`` bytes and the same first error. Test
oracle only; production code calls ``build_atlas``.
"""

from __future__ import annotations

import numpy as np

from dsaa.body import TexelAtlas


def atlas_oracle(uvs: np.ndarray, faces: np.ndarray, height: int, width: int) -> TexelAtlas:
    if height < 8 or width < 8:
        raise ValueError("atlas resolution must be >= 8")
    H, W = height, width
    face_idx = np.full((H, W), -1, dtype=np.intp)
    bary = np.zeros((H, W, 3))
    eps = 1e-12

    cx = (np.arange(W) + 0.5) / W
    cy = (np.arange(H) + 0.5) / H

    for f, (ia, ib, ic) in enumerate(faces):
        a, b, c = uvs[ia], uvs[ib], uvs[ic]
        denom = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        if abs(denom) < 1e-15:
            continue                      # degenerate in UV, covers nothing
        lo_j = max(0, int(np.floor(min(a[0], b[0], c[0]) * W - 0.5)))
        hi_j = min(W - 1, int(np.ceil(max(a[0], b[0], c[0]) * W - 0.5)))
        lo_i = max(0, int(np.floor(min(a[1], b[1], c[1]) * H - 0.5)))
        hi_i = min(H - 1, int(np.ceil(max(a[1], b[1], c[1]) * H - 0.5)))
        if lo_j > hi_j or lo_i > hi_i:
            continue
        px = cx[lo_j:hi_j + 1][None, :]
        py = cy[lo_i:hi_i + 1][:, None]
        u = ((px - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (py - a[1])) / denom
        v = ((b[0] - a[0]) * (py - a[1]) - (px - a[0]) * (b[1] - a[1])) / denom
        inside = (u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps)
        ii, jj = np.nonzero(inside)
        for i, j in zip(ii + lo_i, jj + lo_j):
            prev = face_idx[i, j]
            if prev >= 0:
                shared = len(set(faces[prev]) & {ia, ib, ic})
                if shared < 2:
                    raise ValueError(
                        f"overlapping UV triangles {prev} and {f} at texel ({i},{j}); "
                        "atlas must be injective")
                continue                  # edge-adjacent tie: first face wins
            face_idx[i, j] = f
            uu = u[i - lo_i, j - lo_j]
            vv = v[i - lo_i, j - lo_j]
            bary[i, j] = (1.0 - uu - vv, uu, vv)

    return TexelAtlas(face_idx, bary, H, W)
