"""Hemisphere-visibility maps over a posed template surface.

Each valid atlas texel owns a surface point and an interpolated normal;
visibility is the fraction of stratified cosine-weighted hemisphere rays
that escape the mesh. Rays are frozen data, never differentiated. The map
feeds the low-resolution shading branch; training data caches it per
frame in `ao<res>.dsaa1`.
"""

from dataclasses import dataclass

import numpy as np

from ..body import TemplateMesh, TexelAtlas, render_position_map
from ..diffcore.geom import ragged_arange
from ..rng import stream

__all__ = [
    "AOSamplerConfig", "AOMap", "vertex_normals", "build_frames",
    "stratified_square", "hemisphere_dirs", "TexelRays", "texel_rays",
    "texel_geometry", "UniformGrid", "compute_ao",
]

# barycentric slack so rays crossing a shared edge cannot leak between the
# two inclusive triangle tests
_EDGE_TOL = 1e-9
# (ray, triangle) pairs the walk tests together; bounds its per-step
# arrays (a step of a 16x16 map of 64 rays per texel lists ~100k pairs)
_PAIR_BLOCK = 8192
# ray origins sit this far off the surface, times the mesh's bbox diagonal
_OFFSET_SCALE = 1e-4


@dataclass(frozen=True)
class AOSamplerConfig:
    rays: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.rays < 1:
            raise ValueError("rays must be >= 1")


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
    # one 1-D scatter over the flattened [V,3] rows: every face's corner 0,
    # then corner 1, then 2, the order three per-corner scatters add in
    out = np.zeros(verts.shape, dtype=verts.dtype)
    at = (faces.T.reshape(-1, 1) * 3 + np.arange(3)).reshape(-1)
    np.add.at(out.reshape(-1), at,
              np.broadcast_to(fn, (3,) + fn.shape).reshape(-1))
    norms = np.linalg.norm(out, axis=1)
    keep = norms > 1e-300
    out[keep] /= norms[keep, None]
    return out


def build_frames(normals: np.ndarray) -> np.ndarray:
    """Orthonormal [T,3,3] frames with columns (t1, t2, n).

    Tangents come from the axis least aligned with n, so the frame is a
    deterministic function of the normal alone (not equivariant under
    rigid motion).
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


def hemisphere_dirs(u: np.ndarray) -> np.ndarray:
    """Map unit-square samples to cosine-weighted local z-up hemisphere
    directions."""
    ang = 2.0 * np.pi * u[:, 1]
    r = np.sqrt(u[:, 0])
    z = np.sqrt(1.0 - u[:, 0])
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


@dataclass(frozen=True, eq=False)
class TexelRays:
    """Local (z-up) ray directions dirs [T,rays,3] of the valid texels
    `texels` (flat indices, row-major) of `atlas` under one sampler
    config. They depend on neither the mesh nor the pose, so one set
    serves every frame baked on that atlas."""
    atlas: TexelAtlas
    texels: np.ndarray
    dirs: np.ndarray


def texel_rays(config: AOSamplerConfig, atlas: TexelAtlas) -> TexelRays:
    """The local ray directions of every valid texel of `atlas`; each
    texel's set is keyed by (seed, flat texel index) only."""
    texels = np.flatnonzero(atlas.valid.reshape(-1))
    dirs = np.empty((len(texels), config.rays, 3))
    for row, k in enumerate(texels):
        rng = stream(config.seed, "ao", int(k))
        dirs[row] = hemisphere_dirs(stratified_square(rng, config.rays))
    return TexelRays(atlas, texels, dirs)


def texel_geometry(mesh: TemplateMesh, atlas: TexelAtlas):
    """Surface points, unit normals, and a usability flag per valid texel.

    Rows follow the row-major order of valid atlas texels. Points and raw
    normals are the mesh's positions and vertex normals interpolated
    through `render_position_map`. Texels owned by a zero-area face, or
    whose interpolated normal vanishes, come back with ok=False and must
    be skipped.
    """
    valid = atlas.valid
    pts = render_position_map(mesh.verts, mesh.faces, atlas)[:, valid].T
    raw = render_position_map(vertex_normals(mesh.verts, mesh.faces),
                              mesh.faces, atlas)[:, valid].T

    a, b, c = (mesh.verts[mesh.faces[:, k]] for k in range(3))
    face_area2 = np.linalg.norm(np.cross(b - a, c - a), axis=1)
    diag = np.linalg.norm(mesh.verts.max(axis=0) - mesh.verts.min(axis=0))
    degenerate = face_area2 <= 1e-12 * max(diag, 1e-300) ** 2

    nn = np.linalg.norm(raw, axis=1)
    ok = ~degenerate[atlas.face_idx[valid]] & (nn > 1e-12)
    normals = np.zeros_like(raw)
    normals[ok] = raw[ok] / nn[ok, None]
    return pts, normals, ok


def _corners(verts, faces):
    """[F,3,3] triangle corners of a (verts, faces) soup."""
    return np.asarray(verts, dtype=np.float64)[
        np.asarray(faces, dtype=np.intp).reshape(-1, 3)]


def _to_world(frames, local):
    """Directions [T,N,3] of local [T,N,3] in frames [T,3,3]: the products
    np.einsum("tij,tnj->tni") forms, summed in its order, (j0 + j2) + j1,
    so the bytes are the einsum's at a quarter of its time."""
    f = frames[:, None]
    return np.stack([(f[..., i, 0] * local[..., 0] + f[..., i, 2] * local[..., 2])
                     + f[..., i, 1] * local[..., 1] for i in range(3)], axis=-1)


def _triangles(tri):
    """Per-triangle constants of `_mt_any_hit` for [F,3,3] corners (a, b,
    c): a, b - a and c - a as [3,F] component rows, and the determinant
    tolerance [F] (1e-12 of twice the area)."""
    a = tri[:, 0]
    e1 = tri[:, 1] - a
    e2 = tri[:, 2] - a
    area = np.linalg.norm(np.cross(e1, e2), axis=1)
    return (np.ascontiguousarray(a.T), np.ascontiguousarray(e1.T),
            np.ascontiguousarray(e2.T), 1e-12 * np.maximum(area, 1e-300))


def _cross(a, b):
    """Cross product of [3,N] component rows, term by term as np.cross."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    """Dot product of [3,N] component rows, summed (x0 + x2) + x1: the
    order np.einsum("ij,ij->i") sums three terms in, so maps equal those
    of an einsum predicate bit for bit."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _mt_any_hit(o, d, a, e1, e2, tol):
    """Ray/triangle intersection in determinant form, column by column.

    Columns of the [3,N] component rows pair a ray (o, d) with one
    triangle's `_triangles` constants; a hit needs t > 0. Both
    orientations count; near-parallel rays are rejected (a grazing miss
    is acceptable for occlusion queries).
    """
    p = _cross(d, e2)
    det = _dot(e1, p)
    usable = np.abs(det) > tol
    inv = np.where(usable, det, 1.0)
    inv = 1.0 / inv
    tv = o - a
    u = _dot(tv, p) * inv
    q = _cross(tv, e1)
    v = _dot(d, q) * inv
    t = _dot(e2, q) * inv
    return (usable & (u >= -_EDGE_TOL) & (v >= -_EDGE_TOL)
            & (u + v <= 1.0 + _EDGE_TOL) & (t > 0.0))


def _argmin3(t):
    """np.argmin(t, axis=0) of [3,N] rows, NaN as the least value
    included, without argmin's strided reduction."""
    t0, t1, t2 = t
    ax = np.where((t1 <= t2) | np.isnan(t1), 1, 2)
    ax[((t0 <= t1) & (t0 <= t2)) | np.isnan(t0)] = 0
    return ax


def _stable_cell_order(cid):
    """np.argsort(cid, kind="stable") of cell ids below 2**24 (the grid's
    keys stay below 7 * 32**3), as two stable passes that numpy sorts by
    radix: the low 16 bits as uint16, then the high bits as uint8."""
    order = np.argsort((cid & 0xFFFF).astype(np.uint16), kind="stable")
    high = (cid[order] >> 16).astype(np.uint8)
    return order[np.argsort(high, kind="stable")]


class UniformGrid:
    """Axis-aligned uniform grid over a triangle soup for any-hit queries.

    A triangle is listed in every cell that its bounding box touches once
    widened by a guard band of 1e-9 of the grid diagonal. `any_hit` clips
    each ray to the grid box (widened by the same guard) from
    max(0, t_enter) on, and walks all rays at once, cell by cell, with
    the 3D-DDA of Amanatides & Woo (1987): per ray, tMax holds the t of
    the next cell plane on each axis and tDelta the t between planes, and
    each step crosses the nearest plane. At every step the rays still in
    flight are tested, with the `_mt_any_hit` predicate, against triangles
    of their current cell only; a ray retires as soon as one test hits or
    it leaves the grid. Each step lists its (ray, triangle) pairs and
    tests them in blocks of `_PAIR_BLOCK`, so the walk's memory is bounded
    by pairs per block, whatever the number of rays. A step changes one
    cell index, so a triangle listed in the new cell but not in the old
    one has its range start (or end) on that axis there: each cell also
    keeps, per entry direction, the sub-list of such triangles, and a ray
    tests the whole list only in its first cell and this sub-list after
    each step. Every triangle of every visited cell is thus tested once
    per run of cells, never skipped.

    Hits equal those of a brute-force `_mt_any_hit` over every triangle
    (tests/ao_oracle.py) bit for bit. Each pair the walk tests is a pair
    the brute force tests, with the same arithmetic, so the grid reports
    no hit the brute force lacks. Conversely, a brute-force hit
    point lies inside the grid box at a t the walk covers, and on its
    triangle up to the barycentric slack; where it sits on or near a cell
    plane, the walk may hold the cell on either side (rounding of the
    tMax sums is far below the guard band), and the guard lists the
    triangle on both sides.
    """

    def __init__(self, verts: np.ndarray, faces: np.ndarray):
        corners = _corners(verts, faces)
        # rows a (0-2), e1 (3-5), e2 (6-8) and tol (9) of each triangle
        a, e1, e2, tol = _triangles(corners)
        self._consts = np.concatenate([a, e1, e2, tol[None]])
        F = len(corners)
        lo = corners.reshape(-1, 3).min(axis=0) if F else np.zeros(3)
        hi = corners.reshape(-1, 3).max(axis=0) if F else np.ones(3)
        ext = np.maximum(hi - lo, 1e-9)
        pad = 1e-3 * ext + 1e-9
        lo, hi = lo - pad, hi + pad
        ext = hi - lo
        target = np.clip(8 * F, 8, 32 ** 3)
        cell = (ext.prod() / target) ** (1.0 / 3.0)
        self.res = np.clip(np.ceil(ext / cell).astype(int), 1, 32)
        self.lo, self.hi, self.cell = lo, hi, ext / self.res
        self._guard = 1e-9 * np.linalg.norm(ext)

        def cell_of(x):
            return np.clip(np.floor((x - lo) / self.cell).astype(int),
                           0, self.res - 1)

        tlo = cell_of(corners.min(axis=1) - self._guard)
        thi = cell_of(corners.max(axis=1) + self._guard)
        span = thi - tlo + 1
        tid = np.repeat(np.arange(F), span.prod(axis=1))
        k = ragged_arange(span.prod(axis=1))
        ny, nz = span[tid, 1], span[tid, 2]
        xyz = tlo[tid] + np.stack([k // (ny * nz), k // nz % ny, k % nz],
                                  axis=1)
        # list 6 of a cell holds all its triangles; lists 0-5 only those a
        # ray entering the cell along +x, +y, +z, -x, -y, -z meets first
        lists = np.concatenate([xyz == tlo[tid], xyz == thi[tid],
                                np.ones((len(tid), 1), dtype=bool)], axis=1)
        e, key = np.nonzero(lists)
        cid = (key * self.res[0] + xyz[e, 0]) * self.res[1] + xyz[e, 1]
        cid = cid * self.res[2] + xyz[e, 2]
        self._tris = tid[e][_stable_cell_order(cid)]
        self._counts = np.bincount(cid, minlength=7 * int(self.res.prod()))
        self._start = np.cumsum(self._counts) - self._counts

    def any_hit(self, origins, dirs):
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(dirs, dtype=np.float64)
        if not len(self._tris):
            return np.zeros(len(o), dtype=bool)
        return self._walk(o, d)

    def _walk(self, o, d):
        # rays as [3,N] component rows from here on
        hit = np.zeros(len(o), dtype=bool)
        o, d = np.ascontiguousarray(o.T), np.ascontiguousarray(d.T)
        box_lo = (self.lo - self._guard)[:, None]
        box_hi = (self.hi + self._guard)[:, None]
        flat = d == 0.0
        within = (o >= box_lo) & (o <= box_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (box_lo - o) / d
            tb = (box_hi - o) / d
        enter = np.where(flat, np.where(within, -np.inf, np.inf),
                         np.minimum(ta, tb))
        leave = np.where(flat, np.where(within, np.inf, -np.inf),
                         np.maximum(ta, tb))
        near = np.maximum(np.maximum(enter[0], enter[1]), enter[2])
        far = np.minimum(np.minimum(leave[0], leave[1]), leave[2])
        t0 = np.maximum(near, 0.0)
        ray = np.flatnonzero((t0 <= far) & ~(flat[0] & flat[1] & flat[2]))

        # walk state in two arrays of C-contiguous [k,R] component rows,
        # rays along the last axis: f holds o (rows 0-2), d (3-5), tDelta
        # (6-8) and tMax (9-11), i the cell index (0-2) and step (3-5)
        R = len(ray)
        f = np.empty((12, R))
        i = np.empty((6, R), dtype=int)
        f[:3], f[3:6] = np.take(o, ray, axis=1), np.take(d, ray, axis=1)
        o, d, idx, step = f[:3], f[3:6], i[:3], i[3:]
        lo, cell, res = self.lo[:, None], self.cell[:, None], self.res[:, None]
        idx[:] = np.clip(np.floor((o + t0[ray] * d - lo) / cell), 0, res - 1)
        step[:] = np.sign(d)
        with np.errstate(divide="ignore", invalid="ignore"):
            f[6:9] = cell / np.abs(d)
            f[9:] = np.where(step == 0, np.inf,
                             (lo + (idx + (step > 0)) * cell - o) / d)
        key = np.full(R, 6)                   # whole list in the first cell
        while R:
            cid = (key * self.res[0] + i[0]) * self.res[1] + i[1]
            cid = cid * self.res[2] + i[2]
            cnt = self._counts[cid]
            rows = np.flatnonzero(cnt)
            got = np.zeros(R, dtype=bool)
            if len(rows):
                cnt = cnt[rows]
                pr = np.repeat(rows, cnt)
                tt = self._tris[np.repeat(self._start[cid[rows]], cnt)
                                + ragged_arange(cnt)]
                for s in range(0, len(pr), _PAIR_BLOCK):
                    p = pr[s:s + _PAIR_BLOCK]
                    g = np.take(f[:6], p, axis=1)
                    c = np.take(self._consts, tt[s:s + _PAIR_BLOCK], axis=1)
                    h = _mt_any_hit(g[:3], g[3:], c[:3], c[3:6], c[6:9], c[9])
                    got[p[h]] = True
                hit[ray[got]] = True
            # cross the nearest plane: entry ax * R + r of a flat [3,R] row;
            # f and i are C-contiguous (np.take keeps them so), so these
            # reshapes are views that write through
            ax = _argmin3(f[9:])
            lin = ax * R + np.arange(R)
            tmax, tdelta = f[9:].reshape(-1), f[6:9].reshape(-1)
            idx, step = i[:3].reshape(-1), i[3:].reshape(-1)
            moving = np.isfinite(tmax[lin])
            st = step[lin]
            j = idx[lin] + st
            idx[lin] = j
            tmax[lin] += tdelta[lin]
            key = ax + 3 * (st < 0)
            out = got | ~moving | (j < 0) | (j >= self.res[ax])
            if out.any():
                keep = np.flatnonzero(~out)
                ray, key = ray[keep], key[keep]
                f, i = np.take(f, keep, axis=1), np.take(i, keep, axis=1)
                R = len(ray)
        return hit


def compute_ao(mesh: TemplateMesh, rays: TexelRays) -> AOMap:
    """Visibility per texel of the atlas `rays` were built on, over the
    (posed) template.

    Ray sets are keyed by (seed, flat texel index) only, so texel order,
    batching, and the pose all leave the sampling pattern untouched; one
    `texel_rays` set serves every pose.
    """
    H, W = rays.atlas.height, rays.atlas.width
    pts, nrm, ok = texel_geometry(mesh, rays.atlas)
    sel = np.flatnonzero(ok)
    diag = np.linalg.norm(mesh.verts.max(axis=0) - mesh.verts.min(axis=0))
    world = _to_world(build_frames(nrm[sel]), rays.dirs[sel])
    origins = pts[sel] + _OFFSET_SCALE * diag * nrm[sel]
    origins = np.broadcast_to(origins[:, None, :], world.shape)
    blocked = UniformGrid(mesh.verts, mesh.faces).any_hit(
        origins.reshape(-1, 3), world.reshape(-1, 3)).reshape(world.shape[:2])
    values = np.zeros(H * W)
    valid = np.zeros(H * W, dtype=bool)
    values[rays.texels[sel]] = 1.0 - blocked.mean(axis=1)
    valid[rays.texels[sel]] = True
    return AOMap(values.reshape(H, W), valid.reshape(H, W))
