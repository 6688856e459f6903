"""Hemisphere-visibility maps over a posed template surface.

Each valid atlas texel owns a surface point and an interpolated normal;
visibility is the fraction of stratified cosine-weighted hemisphere rays
that escape the mesh. Rays are frozen data, never differentiated. The map
feeds the low-resolution shading branch; training data caches it per
frame in `ao<res>.dsaa1`.
"""

from dataclasses import dataclass

import numpy as np

from ..body import TemplateMesh, TexelAtlas, build_atlas
from ..rng import stream

__all__ = [
    "AOSamplerConfig", "AOMap", "vertex_normals", "build_frames",
    "stratified_square", "hemisphere_dirs", "texel_geometry",
    "UniformGrid", "ray_any_hit", "compute_ao", "ao_oracle",
]

# barycentric slack so rays crossing a shared edge cannot leak between the
# two inclusive triangle tests
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class AOSamplerConfig:
    rays: int = 64
    cosine_weighted: bool = True
    offset_scale: float = 1e-4   # ray origin offset, times bbox diagonal
    seed: int = 0

    def __post_init__(self):
        if self.rays < 1:
            raise ValueError("rays must be >= 1")
        if not self.offset_scale > 0:
            raise ValueError("offset_scale must be > 0")


@dataclass(frozen=True)
class AOMap:
    values: np.ndarray   # [H,W] float64 in [0,1]
    valid: np.ndarray    # [H,W] bool

    def __post_init__(self):
        if self.values.shape != self.valid.shape or self.values.ndim != 2:
            raise ValueError("values/valid must be matching [H,W] grids")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise ValueError("visibility values must lie in [0,1]")
        if np.any(self.values[~self.valid] != 0.0):
            raise ValueError("invalid texels must carry value 0")


def vertex_normals(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Area-weighted vertex normals; rows stay zero where undefined."""
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    fn = np.cross(b - a, c - a)
    out = np.zeros_like(verts)
    for k in range(3):
        np.add.at(out, faces[:, k], fn)
    norms = np.linalg.norm(out, axis=1)
    keep = norms > 1e-300
    out[keep] /= norms[keep, None]
    return out


def build_frames(normals: np.ndarray) -> np.ndarray:
    """Orthonormal [T,3,3] frames with columns (t1, t2, n).

    Tangents come from the axis least aligned with n, so the frame is a
    deterministic function of the normal alone (not equivariant under
    rigid motion; transport frames explicitly when that matters).
    """
    n = np.asarray(normals, dtype=np.float64)
    ref = np.zeros_like(n)
    ref[np.arange(len(n)), np.argmin(np.abs(n), axis=1)] = 1.0
    t1 = np.cross(ref, n)
    l1 = np.linalg.norm(t1, axis=1)
    ok = l1 > 1e-300
    t1[ok] /= l1[ok, None]
    t1[~ok] = (1.0, 0.0, 0.0)   # degenerate normal; caller flags the texel
    t2 = np.cross(n, t1)
    return np.stack([t1, t2, n], axis=2)


def stratified_square(rng: np.random.Generator, n: int) -> np.ndarray:
    """n jittered samples of the unit square; dense a*a grid plus remainder."""
    a = int(np.sqrt(n))
    u = rng.random((a * a, 2))
    ii, jj = np.divmod(np.arange(a * a), a)
    u[:, 0] = (ii + u[:, 0]) / a
    u[:, 1] = (jj + u[:, 1]) / a
    if n > a * a:
        u = np.vstack([u, rng.random((n - a * a, 2))])
    return u


def hemisphere_dirs(u: np.ndarray, cosine_weighted: bool = True) -> np.ndarray:
    """Map unit-square samples to local z-up hemisphere directions."""
    ang = 2.0 * np.pi * u[:, 1]
    if cosine_weighted:
        r = np.sqrt(u[:, 0])
        z = np.sqrt(1.0 - u[:, 0])
    else:
        z = u[:, 0]
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


def texel_geometry(mesh: TemplateMesh, atlas: TexelAtlas):
    """Surface points, unit normals, and a usability flag per valid texel.

    Rows follow the row-major order of valid atlas texels. Texels owned by
    a zero-area face, or whose interpolated normal vanishes, come back with
    ok=False and must be skipped.
    """
    flat_face = atlas.face_idx.reshape(-1)
    ids = np.flatnonzero(flat_face >= 0)
    fi = flat_face[ids]
    bc = atlas.bary.reshape(-1, 3)[ids]
    tri = mesh.faces[fi]
    pts = np.einsum("tk,tkc->tc", bc, mesh.verts[tri])

    a, b, c = (mesh.verts[mesh.faces[:, k]] for k in range(3))
    face_area2 = np.linalg.norm(np.cross(b - a, c - a), axis=1)
    diag = np.linalg.norm(mesh.verts.max(axis=0) - mesh.verts.min(axis=0))
    degenerate = face_area2 <= 1e-12 * max(diag, 1e-300) ** 2

    vn = vertex_normals(mesh.verts, mesh.faces)
    raw = np.einsum("tk,tkc->tc", bc, vn[tri])
    nn = np.linalg.norm(raw, axis=1)
    ok = ~degenerate[fi] & (nn > 1e-12)
    normals = np.zeros_like(raw)
    normals[ok] = raw[ok] / nn[ok, None]
    return pts, normals, ok


def _mt_any_hit(o, d, a, b, c, t_min):
    """Row-wise ray/triangle intersection in determinant form.

    Both orientations count; near-parallel rays are rejected (a grazing
    miss is acceptable for occlusion queries).
    """
    e1 = b - a
    e2 = c - a
    p = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, p)
    area = np.linalg.norm(np.cross(e1, e2), axis=1)
    usable = np.abs(det) > 1e-12 * np.maximum(area, 1e-300)
    inv = np.where(usable, det, 1.0)
    inv = 1.0 / inv
    tv = o - a
    u = np.einsum("ij,ij->i", tv, p) * inv
    q = np.cross(tv, e1)
    v = np.einsum("ij,ij->i", d, q) * inv
    t = np.einsum("ij,ij->i", e2, q) * inv
    return (usable & (u >= -_EDGE_TOL) & (v >= -_EDGE_TOL)
            & (u + v <= 1.0 + _EDGE_TOL) & (t > t_min))


def ray_any_hit(origins, dirs, verts, faces, t_min=0.0, chunk=256):
    """Brute-force any-hit over every triangle; the grid's reference."""
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    tri = np.asarray(verts, dtype=np.float64)[np.asarray(faces)]
    F = len(tri)
    hit = np.zeros(len(origins), dtype=bool)
    if F == 0:
        return hit
    for s in range(0, len(origins), chunk):
        o = origins[s:s + chunk]
        d = dirs[s:s + chunk]
        r = len(o)
        oo = np.repeat(o, F, axis=0)
        dd = np.repeat(d, F, axis=0)
        aa = np.tile(tri[:, 0], (r, 1))
        bb = np.tile(tri[:, 1], (r, 1))
        cc = np.tile(tri[:, 2], (r, 1))
        h = _mt_any_hit(oo, dd, aa, bb, cc, t_min).reshape(r, F)
        hit[s:s + chunk] = h.any(axis=1)
    return hit


class UniformGrid:
    """Axis-aligned uniform grid over a triangle soup for any-hit queries.

    Candidate cells come from an exact ray/box slab test against every
    occupied cell, so pruning is conservative: a triangle sits in each cell
    its bounding box touches, and cell boxes carry a small guard band.
    """

    def __init__(self, verts: np.ndarray, faces: np.ndarray):
        verts = np.asarray(verts, dtype=np.float64)
        faces = np.asarray(faces)
        self.tri = verts[faces]                       # [F,3,3]
        F = len(self.tri)
        lo = self.tri.reshape(-1, 3).min(axis=0) if F else np.zeros(3)
        hi = self.tri.reshape(-1, 3).max(axis=0) if F else np.ones(3)
        ext = np.maximum(hi - lo, 1e-9)
        pad = 1e-3 * ext + 1e-9
        lo, hi = lo - pad, hi + pad
        ext = hi - lo
        target = np.clip(2 * F, 8, 4096)
        cell = (ext.prod() / target) ** (1.0 / 3.0)
        self.res = np.clip(np.ceil(ext / cell).astype(int), 1, 24)
        self.lo, self.cell = lo, ext / self.res

        pairs = []
        for f in range(F):
            tlo = np.floor((self.tri[f].min(axis=0) - lo) / self.cell).astype(int)
            thi = np.floor((self.tri[f].max(axis=0) - lo) / self.cell).astype(int)
            tlo = np.clip(tlo, 0, self.res - 1)
            thi = np.clip(thi, 0, self.res - 1)
            for x in range(tlo[0], thi[0] + 1):
                for y in range(tlo[1], thi[1] + 1):
                    for z in range(tlo[2], thi[2] + 1):
                        pairs.append(((x * self.res[1] + y) * self.res[2] + z, f))
        if pairs:
            arr = np.asarray(pairs)
            order = np.argsort(arr[:, 0], kind="stable")
            cid, tid = arr[order, 0], arr[order, 1]
            occupied, start = np.unique(cid, return_index=True)
            counts = np.append(start[1:], len(cid)) - start
        else:
            occupied = np.zeros(0, dtype=int)
            start = counts = np.zeros(0, dtype=int)
            tid = np.zeros(0, dtype=int)
        self._tris = tid
        self._start = start
        self._counts = counts
        xyz = np.stack(np.unravel_index(occupied, self.res), axis=1)
        guard = 1e-9 * np.linalg.norm(ext)
        self._box_lo = lo + xyz * self.cell - guard
        self._box_hi = lo + (xyz + 1) * self.cell + guard

    def any_hit(self, origins, dirs, t_min=0.0, chunk=1024):
        origins = np.asarray(origins, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        hit = np.zeros(len(origins), dtype=bool)
        C = len(self._box_lo)
        if C == 0:
            return hit
        for s in range(0, len(origins), chunk):
            o = origins[s:s + chunk]
            d = dirs[s:s + chunk]
            safe = np.where(np.abs(d) < 1e-300, np.copysign(1e-300, d), d)
            tn = np.full((len(o), C), -np.inf)
            tf = np.full((len(o), C), np.inf)
            for ax in range(3):
                inv = 1.0 / safe[:, ax, None]
                ta = (self._box_lo[None, :, ax] - o[:, ax, None]) * inv
                tb = (self._box_hi[None, :, ax] - o[:, ax, None]) * inv
                tn = np.maximum(tn, np.minimum(ta, tb))
                tf = np.minimum(tf, np.maximum(ta, tb))
            rows, cells = np.nonzero(tf >= np.maximum(tn, t_min))
            if len(rows) == 0:
                continue
            cnt = self._counts[cells]
            keep = cnt > 0
            rows, cells, cnt = rows[keep], cells[keep], cnt[keep]
            total = int(cnt.sum())
            if total == 0:
                continue
            rr = np.repeat(rows, cnt)
            inner = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            tt = self._tris[np.repeat(self._start[cells], cnt) + inner]
            h = _mt_any_hit(o[rr], d[rr], self.tri[tt, 0], self.tri[tt, 1],
                            self.tri[tt, 2], t_min)
            hit[s + rr[h]] = True
        return hit


def compute_ao(mesh: TemplateMesh, config: AOSamplerConfig, resolution: int,
               atlas: TexelAtlas | None = None, frames: np.ndarray | None = None,
               occluders=None) -> AOMap:
    """Visibility per atlas texel of the (posed) template.

    Ray sets are keyed by (seed, flat texel index) only, so texel order,
    batching, and the pose all leave the sampling pattern untouched.
    `occluders` appends extra blocking geometry (verts, faces) without
    moving any texel. `frames` overrides the per-texel ray frames (row
    order: valid texels, row-major).
    """
    H = W = int(resolution)
    if atlas is None:
        atlas = build_atlas(mesh.uvs, mesh.faces, H, W)
    if atlas.height != H or atlas.width != W:
        raise ValueError("atlas resolution mismatch")
    pts, nrm, ok = texel_geometry(mesh, atlas)

    # offset scales with the template itself so extra occluders cannot
    # move ray origins (keeps added geometry strictly monotone)
    diag = np.linalg.norm(mesh.verts.max(axis=0) - mesh.verts.min(axis=0))
    eps = config.offset_scale * diag
    occ_v, occ_f = mesh.verts, mesh.faces
    if occluders is not None:
        ev, ef = occluders
        occ_f = np.vstack([occ_f, np.asarray(ef) + len(occ_v)])
        occ_v = np.vstack([occ_v, np.asarray(ev, dtype=np.float64)])
    grid = UniformGrid(occ_v, occ_f)

    if frames is None:
        frames = build_frames(nrm)
    flat_ids = np.flatnonzero(atlas.valid.reshape(-1))
    sel = np.flatnonzero(ok)
    n = config.rays
    values = np.zeros((H, W))
    valid = np.zeros((H, W), dtype=bool)
    if len(sel):
        local = np.empty((len(sel), n, 3))
        for row, k in enumerate(sel):
            rng = stream(config.seed, "ao", int(flat_ids[k]))
            local[row] = hemisphere_dirs(stratified_square(rng, n),
                                         config.cosine_weighted)
        world = np.einsum("tij,tnj->tni", frames[sel], local)
        origins = np.broadcast_to((pts[sel] + eps * nrm[sel])[:, None, :],
                                  world.shape)
        blocked = grid.any_hit(origins.reshape(-1, 3), world.reshape(-1, 3))
        blocked = blocked.reshape(len(sel), n)
        if config.cosine_weighted:
            vis = 1.0 - blocked.mean(axis=1)
        else:
            vis = np.clip((2.0 * local[:, :, 2] * ~blocked).mean(axis=1), 0.0, 1.0)
        values.reshape(-1)[flat_ids[sel]] = vis
        valid.reshape(-1)[flat_ids[sel]] = True
    return AOMap(values, valid)


def ao_oracle(point, normal, verts, faces, n_rays: int, seed: int = 0,
              offset: float | None = None) -> float:
    """Stratified hemisphere visibility at one point, no acceleration."""
    point = np.asarray(point, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    if abs(np.linalg.norm(normal) - 1.0) > 1e-6:
        raise ValueError("oracle requires a unit normal")
    verts = np.asarray(verts, dtype=np.float64)
    if offset is None:
        offset = 1e-4 * np.linalg.norm(verts.max(axis=0) - verts.min(axis=0))
    rng = stream(seed, "ao-oracle")
    local = hemisphere_dirs(stratified_square(rng, n_rays), True)
    d = local @ build_frames(normal[None])[0].T
    o = np.broadcast_to(point + offset * normal, d.shape)
    return float(1.0 - ray_any_hit(o, d, verts, faces).mean())

