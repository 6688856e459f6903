"""Differentiable soft rasterizer (SoftRas-style), fused into one tape node.

`rasterize` projects the mesh on the tape (`project`), then hands the
projected screen coordinates [V,2], camera depths [V] and the texture
[3,Ht,Wt] to a single node whose output is [4,H,W]: three image channels
and the soft mask. `RenderTarget.image` and `.mask` are basic-index views
of it.

Forward stages, plain numpy over [F,Ky,Kx] arrays (one pixel window per
face):

1. Window layout. Each face touches a Ky x Kx pixel window around its
   screen bbox, sized so the sigmoid tail dropped outside it is below
   coverage_tol; one size per call. window=None makes every window the
   whole image (no truncation; the mode gradient checks run in). Window
   pixels off the canvas map to a dump bin that scatters drop.
2. Edges and barycentrics. Per edge, the squared distance from the pixel
   center to the segment (projection parameter t clamped to [0,1]); d2
   is the minimum over the three edges. Unnormalized barycentrics are
   twice the signed subtriangle areas, divided by the signed face area.
3. Coverage. D = sigmoid(sign * d2 / sigma_r), sign +1 inside / -1
   outside, and log(1 - D) = -softplus(sign * d2 / sigma_r).
4. Attributes. Barycentrics clamped to [0,1] and renormalised
   interpolate uv and depth.
5. Depth softmax. Face weight D * exp((zn - shift) / gamma) with zn the
   inverted normalised depth clamped to [0,1]; background weight
   exp(-shift / gamma). The shift is the per-pixel max of
   zn + gamma * ln(D) (background pinned at 0); it cancels out of the
   softmax ratio, so it only keeps exp() in range.
6. Texture. rgb is the bilinear sample at uv (helpers shared with
   dc.texture_sample), taken only at live pixels: on the canvas with a
   nonzero face weight. Every other pixel would add an exact zero.
7. Scatter. rgb * weight, weight and log(1 - D) are summed onto the
   canvas with np.bincount in window order; image = (sum rgb*w +
   background * bg_w) / (sum w + bg_w), mask = 1 - exp(sum log(1 - D)).

Every float64 output equals what the same formulas give as a graph of
generic tape ops (tests/raster_oracle.py): the same operations in the
same order. In float32 only the scatter sums differ, because np.bincount
accumulates in float64.

Backward is derived by hand. Saved for it: per edge the pixel-to-vertex
vectors, the unclamped t, the residual vectors and the edge-winner masks;
the barycentrics before and after clamping; D, the depth factor, the
face weight, the live rgb and bilinear taps; the canvas normalisers.
Detached (no gradient): the inside/outside sign, the window layout and
the depth shift. Subgradient conventions, as the generic ops had them: a
clamp passes no gradient where it saturates (t, the barycentrics, zn, and
the texel coordinates, so uv gets zero gradient where the texel clamp
saturates); the minimum over edges gives ties to its first argument
(edge ab before bc before ca). Subnormal coverage and weights are
flushed to zero in backward, dropping gradient terms below the dtype's
smallest normal number. Per-face sums reduce contiguous rows; per-vertex
sums and the texture gradient use np.bincount. Under no_grad the node
keeps nothing for backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc
from ..diffcore.geom import (BilinearTaps, bilinear_sample, bilinear_tex_grad,
                             bilinear_uv_grad, window_indices)
from ..diffcore.ops import _expit
from ..diffcore.tensor import make_node
from .camera import Camera, project


@dataclass(frozen=True)
class RasterConfig:
    sigma_r: float = 0.3          # edge sigmoid sharpness, pixel^2 units
    gamma: float = 0.05           # depth softmax temperature
    background: tuple = (0.0, 0.0, 0.0)
    znear: float = 1.0
    zfar: float = 6.0
    window: int | None = 16       # max window size; None = full image
    coverage_tol: float = 1e-4    # sigmoid tail allowed outside a window

    def __post_init__(self):
        if self.sigma_r <= 0 or self.gamma <= 0:
            raise ValueError("sigma_r and gamma must be positive")


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
        bg = np.asarray(cfg.background, dtype=dt)
        img = dc.Tensor(np.broadcast_to(bg[:, None, None], (3, H, W)).copy())
        return RenderTarget(img, dc.Tensor(np.zeros((H, W), dtype=dt)))

    screen, z = project(cam, verts)
    if not (z.data > 0.0).any():
        raise ValueError("mesh is entirely behind the camera")
    out = _soft_raster(screen, z, texture, faces, uvs, H, W, cfg)
    return RenderTarget(dc.getitem(out, slice(0, 3)), dc.getitem(out, 3))


def _window_layout(pf: np.ndarray, H: int, W: int, cfg: RasterConfig):
    """Window size and top-left corners (oy, ox) [F] from detached screen
    coordinates pf [F,3,2]."""
    F = pf.shape[0]
    if cfg.window is None:
        return H, W, np.zeros(F, dtype=np.intp), np.zeros(F, dtype=np.intp)
    margin = float(np.sqrt(cfg.sigma_r * np.log(1.0 / cfg.coverage_tol))) + 1.0
    xmin = pf[:, :, 0].min(axis=1) - margin
    xmax = pf[:, :, 0].max(axis=1) + margin
    ymin = pf[:, :, 1].min(axis=1) - margin
    ymax = pf[:, :, 1].max(axis=1) + margin
    need = max(float((xmax - xmin).max()), float((ymax - ymin).max()))
    K = min(max(int(np.ceil(need)) + 1, 2), max(H, W), cfg.window)
    # clip origins to the canvas so windows never waste area outside
    oy = np.clip(np.floor(0.5 * (ymin + ymax)).astype(np.intp) - K // 2, -K + 1, H - 1)
    ox = np.clip(np.floor(0.5 * (xmin + xmax)).astype(np.intp) - K // 2, -K + 1, W - 1)
    return K, K, oy, ox


def _facesum(a: np.ndarray) -> np.ndarray:
    """Per-face sum of a contiguous [F,Ky,Kx] array, as [F,1,1]."""
    return a.reshape(a.shape[0], -1).sum(axis=1).reshape(-1, 1, 1)


def _soft_raster(screen: dc.Tensor, z: dc.Tensor, texture: dc.Tensor,
                 faces: np.ndarray, uvs: np.ndarray, H: int, W: int,
                 cfg: RasterConfig) -> dc.Tensor:
    """The fused node: screen [V,2], z [V], texture [3,Ht,Wt] -> [4,H,W].

    Pixel arrays are [F,Ky,Kx]; per-face values are [F,1,1]."""
    dt = screen.dtype
    F, V = faces.shape[0], screen.shape[0]
    HW = H * W
    pf = screen.data[faces]                            # [F,3,2]
    Ky, Kx, oy, ox = _window_layout(pf, H, W, cfg)

    # pixel centers: x varies along Kx only, y along Ky only
    px = (ox[:, None, None] + np.arange(Kx, dtype=np.intp)[None, None, :] + 0.5).astype(dt)
    py = (oy[:, None, None] + np.arange(Ky, dtype=np.intp)[None, :, None] + 0.5).astype(dt)
    vx = [pf[:, k, 0].reshape(F, 1, 1) for k in range(3)]
    vy = [pf[:, k, 1].reshape(F, 1, 1) for k in range(3)]
    zk = [z.data[faces[:, k]].reshape(F, 1, 1) for k in range(3)]

    def edge(j):
        """Edge j runs from vertex j to vertex j+1 (ab, bc, ca)."""
        k = (j + 1) % 3
        ex, ey = vx[k] - vx[j], vy[k] - vy[j]
        qx, qy = px - vx[j], py - vy[j]                # p - v_j: [F,1,Kx], [F,Ky,1]
        r = 1.0 / ((ex * ex + ey * ey) + 1e-12)
        num = qx * ex + qy * ey
        t0 = num * r
        t = np.clip(t0, 0.0, 1.0)
        rx, ry = qx - t * ex, qy - t * ey              # pixel minus closest point
        return ex, ey, qx, qy, r, num, t0, rx, ry, rx * rx + ry * ry

    ex, ey, qx, qy, r, num, t0, rx, ry, d2 = zip(*(edge(j) for j in range(3)))

    # unnormalized barycentrics: w of vertex (j+2)%3 is cross(e_j, q_j)
    w = [ex[j] * qy[j] - ey[j] * qx[j] for j in (1, 2, 0)]
    area2 = ex[0] * (vy[2] - vy[0]) - ey[0] * (vx[2] - vx[0])
    sign_stab = np.where(area2 >= 0.0, 1e-12, -1e-12).astype(dt)
    inv_area = 1.0 / (area2 + sign_stab)
    bary = [wk * inv_area for wk in w]

    inside = (bary[0] >= 0.0) & (bary[1] >= 0.0) & (bary[2] >= 0.0)
    s = np.where(inside, 1.0, -1.0).astype(dt) / cfg.sigma_r
    take_ab = d2[0] <= d2[1]
    m01 = np.where(take_ab, d2[0], d2[1])
    take_m01 = m01 <= d2[2]
    x = np.where(take_m01, m01, d2[2]) * s
    D = _expit(x)
    log1mD = -np.logaddexp(np.zeros((), dtype=dt), x)

    # clip + renormalize barycentrics for sampling outside the triangle
    bclip = [np.clip(b, 0.0, 1.0) for b in bary]
    inv_bsum = 1.0 / (((bclip[0] + bclip[1]) + bclip[2]) + 1e-12)
    bn = [b * inv_bsum for b in bclip]
    uvf = uvs[faces].astype(dt)                        # [F,3,2] constant
    uf = [uvf[:, k, 0].reshape(F, 1, 1) for k in range(3)]
    vf = [uvf[:, k, 1].reshape(F, 1, 1) for k in range(3)]
    u_pix = (bn[0] * uf[0] + bn[1] * uf[1]) + bn[2] * uf[2]
    v_pix = (bn[0] * vf[0] + bn[1] * vf[1]) + bn[2] * vf[2]
    z_pix = (bn[0] * zk[0] + bn[1] * zk[1]) + bn[2] * zk[2]

    # inverted normalized depth in [0,1], nearer -> larger softmax weight
    zscale = 1.0 / (cfg.zfar - cfg.znear)
    zn_raw = (float(cfg.zfar) - z_pix) * zscale
    zn = np.clip(zn_raw, 0.0, 1.0)

    # canvas index per window pixel; off-canvas pixels go to a dump bin
    # at HW that every scatter drops and every gather reads as zero
    ys, xs, valid = window_indices(oy, ox, Ky, Kx, H, W)
    pix = np.where(valid, ys * W + xs, HW).reshape(-1)

    # Per-pixel shift of the depth exponent (detached; see the module
    # docstring). D underflows to exact 0 in float32; log -> -inf is
    # correct there (the face cannot win the max) but would warn, so
    # floor at the dtype's tiny.
    tiny = np.finfo(dt).tiny
    logw = zn + cfg.gamma * np.log(np.maximum(D, tiny))
    smap = np.zeros(HW + 1, dtype=dt)                  # background log-weight 0
    np.maximum.at(smap, pix, logw.reshape(-1))
    shift = smap[pix].reshape(F, Ky, Kx)
    edepth = np.exp((zn - shift) * (1.0 / cfg.gamma))
    wdepth = D * edepth
    bgw = np.exp(-smap[:HW] / dt.type(cfg.gamma))

    # Texture only at live pixels (on the canvas, nonzero weight): the
    # color scatter of any other pixel adds exact zeros or lands in the
    # dump bin, so leaving it out changes no sum.
    live = np.flatnonzero((wdepth != 0.0) & valid)
    pix_live = pix[live]
    w_live = wdepth.reshape(-1)[live]
    C, Ht, Wt = texture.shape
    taps = BilinearTaps(u_pix.reshape(-1)[live], v_pix.reshape(-1)[live], Ht, Wt,
                        texture.dtype)
    rgb, slopes = bilinear_sample(texture.data.reshape(C, Ht * Wt), taps)

    def scatter(idx, vals):
        return np.bincount(idx, vals, minlength=HW + 1)[:HW].astype(dt)

    inv_den = 1.0 / (scatter(pix, wdepth.reshape(-1)) + bgw)
    bg = np.asarray(cfg.background, dtype=dt)
    out = np.empty((C + 1, HW), dtype=dt)
    for c in range(C):
        out[c] = (scatter(pix_live, rgb[c] * w_live) + bg[c] * bgw) * inv_den
    emask = np.exp(scatter(pix, log1mD.reshape(-1)))
    out[C] = 1.0 - emask

    def backward(g):
        g = g.reshape(C + 1, HW)
        # canvas gradients (image channels, weight sum, log(1 - D) sum),
        # then gathered back to the windows (live pixels for the colors)
        gcanvas = np.zeros((C + 2, HW + 1), dtype=dt)
        gcanvas[:C, :HW] = g[:C] * inv_den
        gcanvas[C, :HW] = -(g[:C] * out[:C]).sum(axis=0) * inv_den
        gcanvas[C + 1, :HW] = -g[C] * emask
        g_rgb = gcanvas[:C, pix_live]                  # [3,live]
        g_w = gcanvas[C, pix]
        g_w[live] += (g_rgb[0] * rgb[0] + g_rgb[1] * rgb[1]) + g_rgb[2] * rgb[2]
        g_w = g_w.reshape(F, Ky, Kx)
        g_l = gcanvas[C + 1, pix].reshape(F, Ky, Kx)

        # subnormal coverage and weights (far outside a face) carry no
        # usable gradient but make every product they enter slow
        Dn = np.where(D < tiny, 0.0, D)
        wn = np.where(wdepth < tiny, 0.0, wdepth)
        g_rgb *= wn.reshape(-1)[live]
        # D feeds the face weight and log(1 - D) = -softplus(x), whose
        # x-derivative is -sigmoid(x) = -D
        g_x = Dn * (g_w * edepth * (1.0 - Dn) - g_l)
        g_zpix = (g_w * wn) * (-zscale / cfg.gamma) * ((zn_raw > 0.0) & (zn_raw < 1.0))

        if texture.requires_grad:
            texture.accumulate_grad(bilinear_tex_grad(g_rgb, taps, texture.dtype))
        if not (screen.requires_grad or z.requires_grad):
            return
        du, dv = np.zeros((2, F * Ky * Kx), dtype=dt)
        du[live], dv[live] = bilinear_uv_grad(g_rgb, taps, slopes)
        du, dv = du.reshape(F, Ky, Kx), dv.reshape(F, Ky, Kx)

        fl = faces.ravel()
        if z.requires_grad:
            g_zf = np.stack([_facesum(g_zpix * b)[:, 0, 0] for b in bn], axis=1)
            z.accumulate_grad(np.bincount(fl, g_zf.ravel(), minlength=V).astype(dt))
        if not screen.requires_grad:
            return

        # renormalised, clamped barycentrics -> raw barycentrics
        g_bn = [du * uf[k] + dv * vf[k] + g_zpix * zk[k] for k in range(3)]
        g_sum = -((g_bn[0] * bclip[0] + g_bn[1] * bclip[1]) + g_bn[2] * bclip[2]) \
            * inv_bsum * inv_bsum
        g_b = [(g_bn[k] * inv_bsum + g_sum) * ((bary[k] > 0.0) & (bary[k] < 1.0))
               for k in range(3)]
        g_area = -_facesum((g_b[0] * w[0] + g_b[1] * w[1]) + g_b[2] * w[2]) \
            * inv_area * inv_area

        # per-face gradients of the three vertices, [F,1,1] each
        gvx = [np.zeros((F, 1, 1), dtype=dt) for _ in range(3)]
        gvy = [np.zeros((F, 1, 1), dtype=dt) for _ in range(3)]
        # edge distances: only the edge that won the min gets the gradient
        g2_d2 = 2.0 * g_x * s
        win = (take_m01 & take_ab, take_m01 & ~take_ab, ~take_m01)
        for j in range(3):
            k, opp = (j + 1) % 3, (j + 2) % 3
            g2 = g2_d2 * win[j]
            grx, gry = rx[j] * g2, ry[j] * g2
            t = np.clip(t0[j], 0.0, 1.0)
            g_t = -(grx * ex[j] + gry * ey[j]) * ((t0[j] > 0.0) & (t0[j] < 1.0))
            g_num = g_t * r[j]
            g_ee = -_facesum(g_t * num[j]) * r[j] * r[j]
            g_wo = g_b[opp] * inv_area                 # w[opp] = ex*qy - ey*qx
            s_num, s_wo = _facesum(g_num), _facesum(g_wo)
            g_ex = _facesum(g_wo * qy[j] - t * grx + g_num * qx[j]) + 2.0 * ex[j] * g_ee
            g_ey = _facesum(-g_wo * qx[j] - t * gry + g_num * qy[j]) + 2.0 * ey[j] * g_ee
            # q_j = p - v_j with p constant; e_j = v_k - v_j
            gvx[j] -= _facesum(grx) + ex[j] * s_num - ey[j] * s_wo + g_ex
            gvy[j] -= _facesum(gry) + ey[j] * s_num + ex[j] * s_wo + g_ey
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
        g_screen = [np.bincount(fl, np.concatenate(gv_, axis=1).ravel(), minlength=V)
                    for gv_ in (gvx, gvy)]
        screen.accumulate_grad(np.stack(g_screen, axis=1).astype(dt))

    return make_node(out.reshape(C + 1, H, W), (screen, z, texture), backward,
                     "rasterize")
