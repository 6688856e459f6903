"""UV atlas rasterization: texel -> (face, barycentric) table and the
position-map renderer built on it.

Texel (i, j) of an HxW map corresponds to UV ((j+0.5)/W, (i+0.5)/H); no
axis flips anywhere in the project. The atlas must be injective: a texel
center claimed by two UV triangles that are not edge/vertex-adjacent is
an error at build time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TexelAtlas:
    face_idx: np.ndarray     # [H,W] intp, -1 where uncovered
    bary: np.ndarray         # [H,W,3]
    height: int
    width: int

    @property
    def valid(self) -> np.ndarray:
        return self.face_idx >= 0


def build_atlas(uvs: np.ndarray, faces: np.ndarray, height: int, width: int) -> TexelAtlas:
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


def render_position_map(verts: np.ndarray, faces: np.ndarray,
                        atlas: TexelAtlas) -> np.ndarray:
    """Bake 3D positions into UV space, [3,H,W]: covered texels hold the
    barycentric blend of their triangle's vertex positions, the rest hold
    0 (`atlas.valid` tells them apart)."""
    verts = np.asarray(verts)
    H, W = atlas.height, atlas.width
    pos = np.zeros((3, H, W), dtype=verts.dtype)
    ii, jj = np.nonzero(atlas.valid)
    if ii.size:
        tri = faces[atlas.face_idx[ii, jj]]          # [M,3]
        vf = verts[tri]                              # [M,3,3]
        bw = atlas.bary[ii, jj].astype(verts.dtype)  # [M,3]
        p = np.einsum("mk,mkc->mc", bw, vf)
        pos[:, ii, jj] = p.T
    return pos
