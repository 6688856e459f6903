"""UV atlas rasterization: texel -> (face, barycentric) table and the
position-map renderer built on it.

Texel (i, j) of an HxW map corresponds to UV ((j+0.5)/W, (i+0.5)/H); no
axis flips anywhere in the project. `build_atlas` tests every (face,
texel) pair of each face's clipped bbox at once, face-major, then by row,
then by column. The lowest face covering a texel center owns it; any
other face covering it must share an edge with the owner, else the atlas
is not injective and the build names the first such pair in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore.geom import ragged_arange


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
    faces = np.asarray(faces, dtype=np.intp)
    tri = uvs[faces]                                       # [F,3,2]
    a, eb, ec = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    denom = eb[:, 0] * ec[:, 1] - ec[:, 0] * eb[:, 1]
    lo = np.maximum(0, np.floor(tri.min(axis=1) * (W, H) - 0.5))   # (col, row)
    hi = np.minimum((W - 1, H - 1), np.ceil(tri.max(axis=1) * (W, H) - 0.5))
    keep = np.flatnonzero(~(np.abs(denom) < 1e-15) & (lo <= hi).all(axis=1))
    lo, n = lo[keep].astype(np.intp), (hi[keep] - lo[keep]).astype(np.intp) + 1
    r = np.repeat(np.arange(keep.size), n[:, 0] * n[:, 1])
    di, dj = np.divmod(ragged_arange(n[:, 0] * n[:, 1]), n[r, 0])
    f, i, j = keep[r], lo[r, 1] + di, lo[r, 0] + dj

    px = (j + 0.5) / W - a[f, 0]
    py = (i + 0.5) / H - a[f, 1]
    u = (px * ec[f, 1] - ec[f, 0] * py) / denom[f]
    v = (eb[f, 0] * py - px * eb[f, 1]) / denom[f]
    inside = (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
    f, t, u, v = f[inside], (i * W + j)[inside], u[inside], v[inside]

    _, first = np.unique(t, return_index=True)          # lowest face per texel
    face_idx = np.full(H * W, -1, dtype=np.intp)
    face_idx[t[first]] = f[first]
    later = np.flatnonzero(face_idx[t] != f)
    shared = (faces[face_idx[t[later]], :, None]
              == faces[f[later], None, :]).sum(axis=(1, 2))
    if (shared < 2).any():
        p = later[np.argmax(shared < 2)]
        raise ValueError(
            f"overlapping UV triangles {face_idx[t[p]]} and {f[p]} at texel "
            f"({t[p] // W},{t[p] % W}); atlas must be injective")
    bary = np.zeros((H * W, 3))
    bary[t[first]] = np.stack([1.0 - u - v, u, v], axis=1)[first]
    return TexelAtlas(face_idx.reshape(H, W), bary.reshape(H, W, 3), H, W)


def render_position_map(verts: np.ndarray, faces: np.ndarray,
                        atlas: TexelAtlas) -> np.ndarray:
    """Bake 3D positions into UV space, [3,H,W]: covered texels hold the
    barycentric blend of their triangle's vertex positions, the rest hold
    0 (`atlas.valid` tells them apart)."""
    verts = np.asarray(verts)
    pos = np.zeros((3, atlas.height, atlas.width), dtype=verts.dtype)
    ii, jj = np.nonzero(atlas.valid)
    vf = verts[faces[atlas.face_idx[ii, jj]]]        # [M,3,3]
    bw = atlas.bary[ii, jj].astype(verts.dtype)      # [M,3]
    pos[:, ii, jj] = np.einsum("mk,mkc->mc", bw, vf).T
    return pos
