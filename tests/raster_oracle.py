"""Reference soft rasterizer for the oracle tests: the composed-graph
form of ``dsaa.renderer.rasterize``, built from generic tape ops (about
180 nodes per call) and the windowed scatter-add defined here.

It keeps a uniform [F,Ky,Kx] window per face, Ky x Kx the largest of the
library's per-face windows (``_window_layout``), anchored at each face's
own window; pixels that are not among the face's pairs in the library's
layout (``_span_pairs``: the part of its own window within the coverage
margin of the face) take part in no scatter and no shift max. Pairs are
thus summed in the fused node's order (face, then row, then column), so
float64 forwards agree bit for bit and gradients agree to rounding. It
is a test oracle only; production code calls the fused rasterizer.
"""

from __future__ import annotations

import numpy as np

from dsaa import diffcore as dc
from dsaa.diffcore.tensor import make_node
from dsaa.renderer import RasterConfig, RenderTarget
from dsaa.renderer.camera import Camera, project
from dsaa.renderer.raster import _ZFAR, _ZNEAR, _span_pairs, _window_layout


def window_indices(oy: np.ndarray, ox: np.ndarray, Ky: int, Kx: int, H: int, W: int):
    """Per-window pixel coordinates: (rows, cols, valid), each [..,Ky,Kx],
    for windows whose top-left corners sit at (oy, ox)."""
    ys = oy[..., None, None] + np.arange(Ky, dtype=np.intp)[:, None]
    xs = ox[..., None, None] + np.arange(Kx, dtype=np.intp)[None, :]
    ys, xs = np.broadcast_arrays(ys, xs)
    valid = (ys >= 0) & (ys < H) & (xs >= 0) & (xs < W)
    return ys, xs, valid


def scatter_add_window(vals: dc.Tensor, oy: np.ndarray, ox: np.ndarray, H: int, W: int,
                       keep=True):
    """Scatter KyxKx windows into an [N,H,W] canvas.

    vals [N,F,Ky,Kx]; window f of batch n covers rows oy[n,f]..oy[n,f]+Ky-1
    and columns ox[n,f]..; out-of-canvas texels, and texels where the
    mask keep (broadcast to vals) is False, are dropped. Backward is a plain
    gather of the same windows.
    """
    N, F, Ky, Kx = vals.shape
    ys, xs, valid = window_indices(oy, ox, Ky, Kx, H, W)
    valid = valid & keep
    flat = np.where(valid, ys * W + xs, 0)
    nidx = np.broadcast_to(np.arange(N, dtype=np.intp)[:, None, None, None], flat.shape)

    out = np.zeros((N, H * W), dtype=vals.dtype)
    np.add.at(out, (nidx[valid], flat[valid]), vals.data[valid])

    def bw(g, needs):
        gf = g.reshape(N, H * W)
        return (gf[nidx, flat] * valid,)

    return make_node(out.reshape(N, H, W), (vals,), bw, "scatter_add_window")


def _edge_d2(p, a, b):
    """Squared distance from pixel points p [F,Ky,Kx,2] to segments a-b
    ([F,1,1,2] each)."""
    e = dc.sub(b, a)                                   # [F,1,1,2]
    ee = dc.sum_(dc.mul(e, e), axis=3, keepdims=True)
    pa = dc.sub(p, a)
    t = dc.mul(dc.sum_(dc.mul(pa, e), axis=3, keepdims=True),
               dc.reciprocal(dc.add(ee, 1e-12)))
    t = dc.clamp(t, 0.0, 1.0)
    d = dc.sub(pa, dc.mul(t, e))
    return dc.sum_(dc.mul(d, d), axis=3)               # [F,Ky,Kx]


def rasterize_graph(verts: dc.Tensor, faces: np.ndarray, uvs: np.ndarray,
              texture: dc.Tensor, cam: Camera, cfg: RasterConfig) -> RenderTarget:
    """verts [V,3] world space, faces [F,3], uvs [V,2], texture [3,Ht,Wt].

    Differentiable w.r.t. verts and texture; the background is black.
    Raises if the mesh is entirely behind the camera.
    """
    H, W = cam.height, cam.width
    dt = verts.dtype
    F = faces.shape[0]

    if F == 0 or verts.shape[0] == 0:
        return RenderTarget(dc.Tensor(np.zeros((3, H, W), dtype=dt)),
                            dc.Tensor(np.zeros((H, W), dtype=dt)))

    screen, z = project(cam, verts)
    if not (z.data > 0.0).any():
        raise ValueError("mesh is entirely behind the camera")

    pf = dc.getitem(screen, faces)                     # [F,3,2]
    zf = dc.getitem(z, faces)                          # [F,3]

    # each face's own window from the library's layout (detached screen
    # coords), placed in a uniform window that holds the largest of them
    y0, y1, x0, x1 = _window_layout(pf.data, H, W, cfg)
    Ky = max(int((y1 - y0).max()), 1)
    Kx = max(int((x1 - x0).max()), 1)
    oy, ox = y0[None, :], x0[None, :]

    # pixel center grids per window, constants
    py = (oy[0][:, None, None] + np.arange(Ky, dtype=np.intp)[None, :, None] + 0.5).astype(dt)
    px = (ox[0][:, None, None] + np.arange(Kx, dtype=np.intp)[None, None, :] + 0.5).astype(dt)
    pgrid = dc.Tensor(np.stack([np.broadcast_to(px, (F, Ky, Kx)),
                                np.broadcast_to(py, (F, Ky, Kx))], axis=3))

    va = dc.reshape(dc.getitem(pf, (slice(None), 0)), (F, 1, 1, 2))
    vb = dc.reshape(dc.getitem(pf, (slice(None), 1)), (F, 1, 1, 2))
    vc = dc.reshape(dc.getitem(pf, (slice(None), 2)), (F, 1, 1, 2))

    def cross2(u, v):
        return dc.sub(dc.mul(dc.getitem(u, (Ellipsis, 0)), dc.getitem(v, (Ellipsis, 1))),
                      dc.mul(dc.getitem(u, (Ellipsis, 1)), dc.getitem(v, (Ellipsis, 0))))

    # unnormalized barycentric (twice signed subtriangle areas)
    wa = cross2(dc.sub(vc, vb), dc.sub(pgrid, vb))
    wb = cross2(dc.sub(va, vc), dc.sub(pgrid, vc))
    wc = cross2(dc.sub(vb, va), dc.sub(pgrid, va))
    area2 = cross2(dc.sub(vb, va), dc.sub(vc, va))     # [F,1,1]

    area_d = area2.data
    sign_stab = np.where(area_d >= 0.0, 1e-12, -1e-12).astype(dt)
    inv_area = dc.reciprocal(dc.add(area2, sign_stab))
    ba = dc.mul(wa, inv_area)
    bb = dc.mul(wb, inv_area)
    bc = dc.mul(wc, inv_area)

    inside = (ba.data >= 0.0) & (bb.data >= 0.0) & (bc.data >= 0.0) & (area_d != 0.0)
    sign = np.where(inside, 1.0, -1.0).astype(dt)

    d2 = dc.minimum(dc.minimum(_edge_d2(pgrid, va, vb), _edge_d2(pgrid, vb, vc)),
                    _edge_d2(pgrid, vc, va))
    D = dc.sigmoid(dc.mul(d2, sign / cfg.sigma_r))     # [F,Ky,Kx]
    # log(1 - D) = -softplus(sign * d2 / sigma), stable for either sign
    log1mD = dc.neg(dc.softplus(dc.mul(d2, sign / cfg.sigma_r)))

    # clip + renormalize barycentrics for sampling outside the triangle
    bac = dc.clamp(ba, 0.0, 1.0)
    bbc = dc.clamp(bb, 0.0, 1.0)
    bcc = dc.clamp(bc, 0.0, 1.0)
    bsum = dc.add(dc.add(dc.add(bac, bbc), bcc), 1e-12)
    inv_bsum = dc.reciprocal(bsum)

    uvf = uvs[faces].astype(dt)                        # [F,3,2] constant
    uv_pix = None
    zf3 = [dc.reshape(dc.getitem(zf, (slice(None), k)), (F, 1, 1)) for k in range(3)]
    z_pix = None
    for k, bk in enumerate((bac, bbc, bcc)):
        bkn = dc.mul(bk, inv_bsum)
        term_uv = dc.mul(dc.reshape(bkn, (F, Ky, Kx, 1)),
                         uvf[:, k, :].reshape(F, 1, 1, 2))
        term_z = dc.mul(bkn, zf3[k])
        uv_pix = term_uv if uv_pix is None else dc.add(uv_pix, term_uv)
        z_pix = term_z if z_pix is None else dc.add(z_pix, term_z)

    rgb = dc.texture_sample(texture, dc.reshape(uv_pix, (F * Ky * Kx, 2)))
    rgb = dc.transpose(dc.reshape(rgb, (F, Ky, Kx, 3)), (3, 0, 1, 2))  # [3,F,Ky,Kx]

    # inverted normalized depth in [0,1], nearer -> larger softmax weight
    zn = dc.clamp(dc.mul(dc.sub(_ZFAR, z_pix), 1.0 / (_ZFAR - _ZNEAR)), 0.0, 1.0)

    # Per-pixel shift of the depth exponent keeps exp() in range at any
    # gamma. Shifting every weight (background included, pinned at zn=0)
    # by a per-pixel constant cancels out of the softmax ratio exactly, so
    # using detached data for the shift changes neither value nor gradient.
    # The shift is the max full log-weight zn + gamma*ln(D), which bounds
    # the largest weight near 1 and the denominator away from 0.
    ys, xs, validw = window_indices(oy[0], ox[0], Ky, Kx, H, W)
    counts, pair_y, pair_x = _span_pairs(pf.data, H, W, cfg)
    pair_face = np.repeat(np.arange(F), counts)
    own = np.zeros((F, Ky, Kx), dtype=bool)
    own[pair_face, pair_y - y0[pair_face], pair_x - x0[pair_face]] = True
    validw &= own
    # D underflows to exact 0 in float32; log -> -inf is correct here (the
    # face cannot win the max) but would warn, so floor at the dtype's tiny
    logw = zn.data + cfg.gamma * np.log(np.maximum(D.data, np.finfo(dt).tiny))
    smap = np.zeros((H, W), dtype=dt)                 # background log-weight 0
    np.maximum.at(smap, (ys[validw], xs[validw]), logw[validw])
    shift = np.where(validw, smap[np.where(validw, ys, 0), np.where(validw, xs, 0)],
                     np.asarray(2.0, dtype=dt))
    wdepth = dc.mul(D, dc.exp(dc.mul(dc.sub(zn, shift), 1.0 / cfg.gamma)))
    bgw = np.exp(-smap / dt.type(cfg.gamma))                          # [H,W]

    chans = [dc.mul(dc.getitem(rgb, c), wdepth) for c in range(3)]
    chans.append(wdepth)
    chans.append(log1mD)
    stackv = dc.stack(chans)                                          # [5,F,Ky,Kx]
    canvas = scatter_add_window(stackv, np.broadcast_to(oy, (5, F)),
                                np.broadcast_to(ox, (5, F)), H, W, own)  # [5,H,W]

    den = dc.add(dc.getitem(canvas, 3), bgw)
    inv_den = dc.reciprocal(den)
    img = dc.stack([dc.mul(dc.getitem(canvas, c), inv_den) for c in range(3)])
    mask = dc.sub(1.0, dc.exp(dc.getitem(canvas, 4)))
    return RenderTarget(img, mask)


def bilinear_tex_grad_per_channel(g: np.ndarray, taps, dtype) -> np.ndarray:
    """Texture gradient [C,H,W] of bilinear samples at `taps` given their
    gradient g [C,M]: per channel and corner, one bincount over the
    top-left texel index added into the canvas at the corner's offset,
    summed in float64, then cast to dtype."""
    C = g.shape[0]
    H, W, wx, wy = taps.H, taps.W, taps.wx, taps.wy
    HW = H * W
    corners = (((1 - wy) * (1 - wx), 0), ((1 - wy) * wx, 1),
               (wy * (1 - wx), W), (wy * wx, W + 1))
    out = np.zeros((C, HW))
    for c in range(C):
        for w, shift in corners:
            out[c, shift:] += np.bincount(taps.idx, g[c] * w, minlength=HW - shift)
    return out.astype(dtype).reshape(C, H, W)
