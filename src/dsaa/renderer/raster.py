"""Differentiable soft rasterizer (SoftRas-style), fused into one tape node.

`rasterize` projects the mesh on the tape (`project`), then hands the
projected screen coordinates [V,2], camera depths [V] and the texture
[3,Ht,Wt] to a single node whose output is [4,H,W]: three image channels
and the soft mask. `RenderTarget.image` and `.mask` are basic-index views
of it.

Forward stages, plain numpy over one flat list of (face, pixel) pairs:

1. Pair layout. Each face has its own Ky x Kx pixel window around its
   screen bbox widened by the coverage margin sqrt(sigma_r *
   ln(1/_COVERAGE_TOL)) + 1 px, capped per face at `window` and clipped to
   the canvas. In each window row only the column span whose pixel
   centres lie within the margin of the filled triangle is enumerated:
   one interval per row, in closed form from the screen vertices, since
   the dilated triangle is convex. Every dropped pair has coverage below
   _COVERAGE_TOL; the extra pixel bounds its depth weight as well (see
   `_coverage_margin`). window=None is an infinite margin: every face
   covers every canvas pixel (no truncation; the mode gradient checks
   run in).
   Pairs run face-major, then by row, then by column, so each face owns
   one contiguous run (empty for a face with no pixel near it).
   Per-face constants are gathered once per pair.
2. Edges and barycentrics. Per edge, the squared distance from the pixel
   center to the segment (projection parameter t clamped to [0,1]); d2
   is the minimum over the three edges. Unnormalized barycentrics are
   twice the signed subtriangle areas, divided by the signed face area.
3. Coverage. D = sigmoid(x) and log(1 - D) = -softplus(x) with x =
   sign * d2 / sigma_r, sign +1 inside / -1 outside, both from one
   e = exp(-|x|): D = max(e, x >= 0) / (1 + e), as _expit takes it, and
   softplus(x) = max(x, 0) + log1p(e), as dc.softplus takes it. A pair is
   inside when its three barycentrics are nonnegative and its face has
   nonzero signed area: a zero-area face has no inside, so it fades out
   like an edge instead of covering every pixel of its span.
4. Attributes. Barycentrics clamped to [0,1] and renormalised
   interpolate uv and depth.
5. Depth softmax. Face weight D * exp((zn - shift) / gamma) with zn the
   inverted normalised depth clamped to [0,1]; the black background's
   weight is exp(-shift / gamma). The shift is the per-pixel max of
   zn + gamma * ln(D) (background pinned at 0); it cancels out of the
   softmax ratio, so it only keeps exp() in range.
6. Texture. rgb is the bilinear sample at uv (helpers shared with
   dc.texture_sample), taken at every pair; the code takes it right
   after stage 4, ahead of the depth terms. A dead pair (face weight 0)
   adds exact zeros to every sum; with a finite window none is dead:
   D >= sigmoid(-margin^2 / sigma_r) and the depth factor is >=
   exp(-1 / gamma), >= ~4e-28 together at the scene's settings.
7. Scatter. rgb * weight, weight and log(1 - D) are summed onto the
   canvas with np.bincount in pair order; image = sum rgb*w / (sum w +
   bg_w), mask = 1 - exp(sum log(1 - D)).

Every float64 output equals what the same formulas give as a graph of
generic tape ops (tests/raster_oracle.py): the same operations in the
same order. In float32 only the scatter sums differ, because np.bincount
accumulates in float64.

Backward is derived by hand. Saved for it: the pair layout (face runs
and canvas index per pair); per edge the pixel-to-vertex vectors, the
unclamped t, the residual vectors and the edge-winner masks; the
barycentrics before and after clamping; D, the depth factor, the face
weight, the rgb and bilinear taps; the canvas normalisers.
Detached (no gradient): the inside/outside sign, the pair layout and
the depth shift. Subgradient conventions, as the generic ops had them: a
clamp passes no gradient where it saturates (t, the barycentrics, zn, and
the texel coordinates, so uv gets zero gradient where the texel clamp
saturates); the minimum over edges gives ties to its first argument
(edge ab before bc before ca). Subnormal coverage and weights are
flushed to zero in backward, dropping gradient terms below the dtype's
smallest normal number. Per-face sums reduce each face's contiguous run
(np.add.reduceat); per-vertex sums and the texture gradient use
np.bincount. Under no_grad the node keeps nothing for backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc
from ..diffcore.geom import (BilinearTaps, bilinear_sample, bilinear_tex_grad,
                             bilinear_uv_grad, ragged_arange)
from ..diffcore.tensor import make_node
from .camera import Camera, project

_ZNEAR, _ZFAR = 1.0, 6.0   # camera depths where zn is 1 and 0
_COVERAGE_TOL = 1e-4       # sigmoid tail allowed outside a window


@dataclass(frozen=True)
class RasterConfig:
    sigma_r: float                # edge sigmoid sharpness, pixel^2 units
    gamma: float                  # depth softmax temperature
    window: int | None = 16       # max window size per face; None = full image

    def __post_init__(self):
        if self.sigma_r <= 0 or self.gamma <= 0:
            raise ValueError("sigma_r and gamma must be positive")
        if self.window is not None and not (isinstance(self.window, (int, np.integer))
                                            and self.window >= 2):
            raise ValueError(f"window must be None or an int >= 2, got {self.window!r}")


@dataclass
class RenderTarget:
    image: dc.Tensor              # [3,H,W]
    mask: dc.Tensor               # [H,W]


def rasterize(verts: dc.Tensor, faces: np.ndarray, uvs: np.ndarray,
              texture: dc.Tensor, cam: Camera, cfg: RasterConfig) -> RenderTarget:
    """verts [V,3] world space, faces [F,3], uvs [V,2], texture [3,Ht,Wt].

    Differentiable w.r.t. verts and texture. Raises if the mesh is
    entirely behind the camera.
    """
    H, W = cam.height, cam.width
    dt = verts.dtype

    if faces.shape[0] == 0 or verts.shape[0] == 0:
        return RenderTarget(dc.Tensor(np.zeros((3, H, W), dtype=dt)),
                            dc.Tensor(np.zeros((H, W), dtype=dt)))

    screen, z = project(cam, verts)
    if not (z.data > 0.0).any():
        raise ValueError("mesh is entirely behind the camera")
    out = _soft_raster(screen, z, texture, faces, uvs, H, W, cfg)
    return RenderTarget(dc.getitem(out, slice(0, 3)), dc.getitem(out, 3))


def _coverage_margin(cfg: RasterConfig) -> float:
    """Pixel distance from a face beyond which its coverage is below
    _COVERAGE_TOL: sigmoid(-d2 / sigma_r) < _COVERAGE_TOL once
    d2 > sigma_r * ln(1 / _COVERAGE_TOL), plus one pixel to spare.

    The spare pixel bounds a dropped pair's depth weight, not only its
    coverage: that weight, D * exp(zn / gamma) against the background's
    1, reaches D * e^(1/gamma) (~4.9e8 D at gamma = 0.05). Past the margin
    it is below exp(1/gamma - margin^2 / sigma_r), ~8.6e-11 at the scene's
    settings (synthdata.raster_config, sigma_r = 0.08) but only ~0.027 at
    sigma_r = 0.3, so RasterConfig has no default for either setting."""
    return float(np.sqrt(cfg.sigma_r * np.log(1.0 / _COVERAGE_TOL))) + 1.0


def _window_layout(pf: np.ndarray, H: int, W: int, cfg: RasterConfig):
    """On-canvas window of every face from detached screen coordinates
    pf [F,3,2]: rows y0..y1-1 and columns x0..x1-1, four [F] arrays.

    The window is Ky x Kx pixels centered on the face's bbox widened by
    the coverage margin, each side its own need capped at `window`, then
    clipped to the canvas (possibly to nothing). It bounds the face's
    pairs: `_span_pairs` keeps the part of it near the face."""
    F = pf.shape[0]
    if cfg.window is None:
        zero = np.zeros(F, dtype=np.intp)
        return zero, np.full(F, H, dtype=np.intp), zero, np.full(F, W, dtype=np.intp)
    if not np.isfinite(pf).all():
        raise ValueError("non-finite screen coordinates")
    margin = _coverage_margin(cfg)
    a, b, c = pf[:, 0], pf[:, 1], pf[:, 2]             # [F,2] as (x, y)
    lo = np.minimum(np.minimum(a, b), c) - margin
    hi = np.maximum(np.maximum(a, b), c) + margin
    K = np.clip(np.ceil(hi - lo).astype(np.intp) + 1, 2, min(max(H, W), cfg.window))
    o = np.floor(0.5 * (lo + hi)).astype(np.intp) - K // 2
    x0, y0 = np.clip(o, 0, (W, H)).T
    x1, y1 = np.clip(o + K, 0, (W, H)).T
    return y0, y1, x0, x1


# Pixel centres this far (px) past a row's span are kept as well, so that
# float64 rounding of the span ends never drops a pair within the margin.
_SPAN_SLACK = 1e-6


def _row_spans(pf: np.ndarray, margin: float, ny: np.ndarray, py: np.ndarray):
    """Ends (left, right) [R] of the rows' sections of the faces'
    triangles dilated by `margin`, in float64: ny [F] rows per face, in
    face order, at pixel-centre heights py [R]. Both ends are nan where
    the row misses the face.

    The dilated triangle is convex and is the union of the three edge
    capsules (the triangle's own row section ends on its edges), so the
    section is the hull of the capsules' sections. A capsule's left end
    is the least x(t) - sqrt(margin^2 - u(t)^2) over the edge points at
    t in [0,1], u(t) the row's height above the point: a convex function
    of t, least at its stationary point (where the row crosses the
    capsule's offset side) clipped to [0,1] (a vertex disk). Its right
    end mirrors it. A row parallel to an edge (zero-length edges
    included) takes t = 0, the disk at the edge's start; the neighbouring
    capsules hold the disk at its end. The root is nan where the row
    misses the capsule, and np.fmin/np.fmax skip nan."""
    v = pf.astype(np.float64).transpose(2, 1, 0)      # [2,3,F] as (x, y)
    e = v[:, [1, 2, 0]] - v                            # edge j from vertex j to j+1
    ex, ey = e
    slanted = ey != 0.0
    inv_ey = np.divide(1.0, ey, out=np.zeros_like(ey), where=slanted)
    # the stationary t of the left end is dy / ey - shift, of the right
    # end dy / ey + shift, dy the row's height above the edge's start
    shift = np.divide(margin * ex, np.hypot(ex, ey) * np.abs(ey),
                      out=np.zeros_like(ey), where=slanted)
    # per-face constants repeated once per row, edge-major [18,R]
    per_row = np.repeat(np.concatenate([v.reshape(6, -1), e.reshape(6, -1), inv_ey, shift]),
                        ny, axis=1)
    vx_r, vy_r, ex_r, ey_r, inv_ey_r, shift_r = (per_row[i:i + 3] for i in range(0, 18, 3))
    m2 = margin * margin
    lefts, rights = [], []
    with np.errstate(invalid="ignore"):
        for j in range(3):
            dy = py - vy_r[j]
            tau = dy * inv_ey_r[j]
            for out, t, side in ((lefts, tau - shift_r[j], np.subtract),
                                 (rights, tau + shift_r[j], np.add)):
                t = np.clip(t, 0.0, 1.0)
                u = dy - t * ey_r[j]
                out.append(side(vx_r[j] + t * ex_r[j], np.sqrt(m2 - u * u)))
    (l0, l1, l2), (r0, r1, r2) = lefts, rights
    return np.fmin(np.fmin(l0, l1), l2), np.fmax(np.fmax(r0, r1), r2)


def _span_pairs(pf: np.ndarray, H: int, W: int, cfg: RasterConfig):
    """Flat (face, pixel) pairs from detached screen coordinates pf
    [F,3,2]: the pair count of every face [F] and the row and column of
    every pair [P].

    Pairs run face-major, then by row, then by column, so each face owns
    one contiguous run (empty for a face with no pixel near it). Every
    row of the face's window contributes the columns of its window whose
    pixel centres lie within the coverage margin (plus _SPAN_SLACK) of
    the filled triangle. window=None is an infinite margin: whole canvas
    rows."""
    y0, y1, x0, x1 = _window_layout(pf, H, W, cfg)
    ny = y1 - y0
    row_face = np.repeat(np.arange(pf.shape[0]), ny)
    row_y = y0[row_face] + ragged_arange(ny)
    lo, hi = x0[row_face], x1[row_face]
    if cfg.window is not None:
        left, right = _row_spans(pf, _coverage_margin(cfg), ny, row_y + 0.5)
        # columns c with left - slack <= c + 0.5 <= right + slack
        # (a nan end, a row that misses the face, gives no column)
        lo = np.fmax(np.fmin(np.ceil(left - (0.5 + _SPAN_SLACK)), hi), lo).astype(np.intp)
        hi = np.fmax(np.fmin(np.floor(right + (_SPAN_SLACK - 0.5)) + 1.0, hi), lo).astype(np.intp)
    nx = hi - lo
    row_end = np.cumsum(nx)
    ys = np.repeat(row_y, nx)
    xs = np.repeat(lo - (row_end - nx), nx) + np.arange(ys.size)
    row_end = np.concatenate([[0], row_end])
    face_end = np.cumsum(ny)
    return row_end[face_end] - row_end[face_end - ny], ys, xs


def _soft_raster(screen: dc.Tensor, z: dc.Tensor, texture: dc.Tensor,
                 faces: np.ndarray, uvs: np.ndarray, H: int, W: int,
                 cfg: RasterConfig) -> dc.Tensor:
    """The fused node: screen [V,2], z [V], texture [3,Ht,Wt] -> [4,H,W].

    Pair arrays are [P]; per-face values are [F]."""
    dt = screen.dtype
    F, V = faces.shape[0], screen.shape[0]
    HW = H * W
    pf = screen.data[faces]                            # [F,3,2]
    counts, ys, xs = _span_pairs(pf, H, W, cfg)
    pix = ys * W + xs
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]

    def facesum(a):
        """Per-face sums [F] of a pair array over each face's run; faces
        with no pair get 0 (reduceat would read a neighbour's element)."""
        out = np.zeros(F, dtype=dt)
        out[nonempty] = np.add.reduceat(a, starts)
        return out

    # per-face constants: vertices, edges (vertex j to j+1: ab, bc, ca)
    vx = [pf[:, k, 0] for k in range(3)]
    vy = [pf[:, k, 1] for k in range(3)]
    zk = [z.data[faces[:, k]] for k in range(3)]
    ex = [vx[(j + 1) % 3] - vx[j] for j in range(3)]
    ey = [vy[(j + 1) % 3] - vy[j] for j in range(3)]
    r = [1.0 / ((ex[j] * ex[j] + ey[j] * ey[j]) + 1e-12) for j in range(3)]
    area2 = ex[0] * (vy[2] - vy[0]) - ey[0] * (vx[2] - vx[0])
    sign_stab = np.where(area2 >= 0.0, 1e-12, -1e-12).astype(dt)
    inv_area = 1.0 / (area2 + sign_stab)
    uvf = uvs[faces].astype(dt)                        # [F,3,2] constant
    uf = [uvf[:, k, 0] for k in range(3)]
    vf = [uvf[:, k, 1] for k in range(3)]
    # ... gathered once per pair, as rows of one [25,P] array
    per_pair = np.repeat(np.stack(vx + vy + ex + ey + r + zk + uf + vf + [inv_area]),
                         counts, axis=1)
    vx_p, vy_p, ex_p, ey_p, r_p, zk_p, uf_p, vf_p = (per_pair[i:i + 3] for i in range(0, 24, 3))
    inv_area_p = per_pair[24]

    px = (xs + 0.5).astype(dt)
    py = (ys + 0.5).astype(dt)

    def edge(j):
        qx, qy = px - vx_p[j], py - vy_p[j]            # p - v_j
        num = qx * ex_p[j] + qy * ey_p[j]
        t0 = num * r_p[j]
        t = np.clip(t0, 0.0, 1.0)
        rx, ry = qx - t * ex_p[j], qy - t * ey_p[j]    # pixel minus closest point
        return qx, qy, num, t0, rx, ry, rx * rx + ry * ry

    qx, qy, num, t0, rx, ry, d2 = zip(*(edge(j) for j in range(3)))

    # unnormalized barycentrics: w of vertex (j+2)%3 is cross(e_j, q_j)
    w = [ex_p[j] * qy[j] - ey_p[j] * qx[j] for j in (1, 2, 0)]
    bary = [wk * inv_area_p for wk in w]

    inside = ((bary[0] >= 0.0) & (bary[1] >= 0.0) & (bary[2] >= 0.0)
              & np.repeat(area2 != 0.0, counts))
    s = (inside * 2.0 - 1.0).astype(dt) / cfg.sigma_r
    take_ab = d2[0] <= d2[1]
    m01 = np.minimum(d2[0], d2[1])
    take_m01 = m01 <= d2[2]
    x = np.minimum(m01, d2[2]) * s
    e = np.exp(-np.abs(x))                             # as in _expit
    D = np.maximum(e, x >= 0.0) / (1 + e)
    log1mD = -(np.maximum(x, 0.0) + np.log1p(e))

    # clip + renormalize barycentrics for sampling outside the triangle
    bclip = [np.clip(b, 0.0, 1.0) for b in bary]
    inv_bsum = 1.0 / (((bclip[0] + bclip[1]) + bclip[2]) + 1e-12)
    bn = [b * inv_bsum for b in bclip]
    u_pix = (bn[0] * uf_p[0] + bn[1] * uf_p[1]) + bn[2] * uf_p[2]
    v_pix = (bn[0] * vf_p[0] + bn[1] * vf_p[1]) + bn[2] * vf_p[2]
    # sampled before the depth terms: the [3,P] samples and slopes are
    # then allocated while the heap still has room, and the peak adds
    # only [P] arrays, which fit the holes earlier pair arrays leave
    C, Ht, Wt = texture.shape
    taps = BilinearTaps(u_pix, v_pix, Ht, Wt, texture.dtype)
    rgb, slopes = bilinear_sample(texture.data.reshape(C, Ht * Wt), taps)
    z_pix = (bn[0] * zk_p[0] + bn[1] * zk_p[1]) + bn[2] * zk_p[2]

    # inverted normalized depth in [0,1], nearer -> larger softmax weight
    zscale = 1.0 / (_ZFAR - _ZNEAR)
    zn_raw = (_ZFAR - z_pix) * zscale
    zn = np.clip(zn_raw, 0.0, 1.0)

    # Per-pixel shift of the depth exponent (detached; see the module
    # docstring). D underflows to exact 0 in float32; log -> -inf is
    # correct there (the face cannot win the max) but would warn, so
    # floor at the dtype's tiny.
    tiny = np.finfo(dt).tiny
    logw = zn + cfg.gamma * np.log(np.maximum(D, tiny))
    smap = np.zeros(HW, dtype=dt)                      # background log-weight 0
    np.maximum.at(smap, pix, logw)
    edepth = np.exp((zn - smap[pix]) * (1.0 / cfg.gamma))
    wdepth = D * edepth
    bgw = np.exp(-smap / dt.type(cfg.gamma))

    def scatter(idx, vals):
        return np.bincount(idx, vals, minlength=HW).astype(dt)

    inv_den = 1.0 / (scatter(pix, wdepth) + bgw)
    out = np.empty((C + 1, HW), dtype=dt)
    for c in range(C):
        out[c] = scatter(pix, rgb[c] * wdepth) * inv_den
    emask = np.exp(scatter(pix, log1mD))
    out[C] = 1.0 - emask

    def backward(g, needs):
        need_screen, _, need_tex = needs
        g = g.reshape(C + 1, HW)
        # canvas gradients (image channels, weight sum, log(1 - D) sum),
        # then gathered back to the pairs
        gcanvas = np.empty((C + 2, HW), dtype=dt)
        gcanvas[:C] = g[:C] * inv_den
        gcanvas[C] = -(g[:C] * out[:C]).sum(axis=0) * inv_den
        gcanvas[C + 1] = -g[C] * emask
        g_rgb = gcanvas[:C, pix]                       # [3,P]
        g_w = gcanvas[C, pix] + ((g_rgb[0] * rgb[0] + g_rgb[1] * rgb[1])
                                 + g_rgb[2] * rgb[2])
        g_l = gcanvas[C + 1, pix]

        # subnormal coverage and weights (far outside a face) carry no
        # usable gradient but make every product they enter slow
        Dn = D * (D >= tiny)
        wn = wdepth * (wdepth >= tiny)
        g_rgb *= wn
        # D feeds the face weight and log(1 - D) = -softplus(x), whose
        # x-derivative is -sigmoid(x) = -D
        g_x = Dn * (g_w * edepth * (1.0 - Dn) - g_l)
        g_zpix = (g_w * wn) * (-zscale / cfg.gamma) * ((zn_raw > 0.0) & (zn_raw < 1.0))

        g_tex = bilinear_tex_grad(g_rgb, taps, texture.dtype) if need_tex else None
        # screen and z both come from project(cam, verts): one gate for both
        if not need_screen:
            return None, None, g_tex
        du, dv = bilinear_uv_grad(g_rgb, taps, slopes)

        fl = faces.ravel()
        g_zf = np.stack([facesum(g_zpix * b) for b in bn], axis=1)
        g_z = np.bincount(fl, g_zf.ravel(), minlength=V).astype(dt)

        # renormalised, clamped barycentrics -> raw barycentrics
        g_bn = [du * uf_p[k] + dv * vf_p[k] + g_zpix * zk_p[k] for k in range(3)]
        g_sum = -((g_bn[0] * bclip[0] + g_bn[1] * bclip[1]) + g_bn[2] * bclip[2]) \
            * inv_bsum * inv_bsum
        g_b = [(g_bn[k] * inv_bsum + g_sum) * ((bary[k] > 0.0) & (bary[k] < 1.0))
               for k in range(3)]
        g_area = -facesum((g_b[0] * w[0] + g_b[1] * w[1]) + g_b[2] * w[2]) \
            * inv_area * inv_area

        # per-face gradients of the three vertices, [F] each
        gvx = [np.zeros(F, dtype=dt) for _ in range(3)]
        gvy = [np.zeros(F, dtype=dt) for _ in range(3)]
        # edge distances: only the edge that won the min gets the gradient
        g2_d2 = 2.0 * g_x * s
        win = (take_m01 & take_ab, take_m01 & ~take_ab, ~take_m01)
        for j in range(3):
            k, opp = (j + 1) % 3, (j + 2) % 3
            g2 = g2_d2 * win[j]
            grx, gry = rx[j] * g2, ry[j] * g2
            t = np.clip(t0[j], 0.0, 1.0)
            g_t = -(grx * ex_p[j] + gry * ey_p[j]) * ((t0[j] > 0.0) & (t0[j] < 1.0))
            g_num = g_t * r_p[j]
            g_ee = -facesum(g_t * num[j]) * r[j] * r[j]
            g_wo = g_b[opp] * inv_area_p               # w[opp] = ex*qy - ey*qx
            s_num, s_wo = facesum(g_num), facesum(g_wo)
            g_ex = facesum(g_wo * qy[j] - t * grx + g_num * qx[j]) + 2.0 * ex[j] * g_ee
            g_ey = facesum(-g_wo * qx[j] - t * gry + g_num * qy[j]) + 2.0 * ey[j] * g_ee
            # q_j = p - v_j with p constant; e_j = v_k - v_j
            gvx[j] -= facesum(grx) + ex[j] * s_num - ey[j] * s_wo + g_ex
            gvy[j] -= facesum(gry) + ey[j] * s_num + ex[j] * s_wo + g_ey
            gvx[k] += g_ex
            gvy[k] += g_ey
        # area2 = cross(v1 - v0, v2 - v0)
        ux, uy = ex[0], ey[0]
        wx, wy = vx[2] - vx[0], vy[2] - vy[0]
        gvx[1] += g_area * wy
        gvy[1] -= g_area * wx
        gvx[2] -= g_area * uy
        gvy[2] += g_area * ux
        gvx[0] -= g_area * (wy - uy)
        gvy[0] -= g_area * (ux - wx)
        g_screen = [np.bincount(fl, np.stack(gv_, axis=1).ravel(), minlength=V)
                    for gv_ in (gvx, gvy)]
        return np.stack(g_screen, axis=1).astype(dt), g_z, g_tex

    return make_node(out.reshape(C + 1, H, W), (screen, z, texture), backward,
                     "rasterize")
