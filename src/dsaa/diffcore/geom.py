"""Gather/scatter style differentiable ops used by the geometry pipeline:
bilinear texture sampling and small interpolation-matrix upsamplers,
plus the ragged-run index helper the rasterizer and the AO grid share.
Blend skinning is body.lbs_apply.

Every scatter (np.add.at, np.bincount) applies its updates in index
order, so repeated runs are bit-identical. The bilinear helpers are
shared with the fused rasterizer in renderer/raster.py.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, make_node
from . import ops


class BilinearTaps:
    """Where bilinear samples at flat (u, v) arrays in [0,1]^2 read an
    [H,W] grid: flat index of the top-left texel, the fractional weights,
    and where each coordinate lies strictly inside the clamp range (the
    uv gradient is zero elsewhere). `texture_sample` and the rasterizer
    build them per call from the coordinates they sample."""

    __slots__ = ("idx", "wx", "wy", "in_x", "in_y", "H", "W")

    def __init__(self, u, v, H: int, W: int, dtype):
        if H < 2 or W < 2:
            raise ValueError(f"bilinear sampling needs at least 2x2 texels, got {H}x{W}")
        px = u * W - 0.5
        py = v * H - 0.5
        pxc = np.clip(px, 0.0, W - 1.0)
        pyc = np.clip(py, 0.0, H - 1.0)
        x0 = np.minimum(np.floor(pxc).astype(np.intp), W - 2)
        y0 = np.minimum(np.floor(pyc).astype(np.intp), H - 2)
        self.idx = y0 * W + x0
        self.wx = (pxc - x0).astype(dtype)
        self.wy = (pyc - y0).astype(dtype)
        self.in_x = (px > 0.0) & (px < W - 1.0)
        self.in_y = (py > 0.0) & (py < H - 1.0)
        self.H, self.W = H, W

    def corners(self):
        """The four bilinear corners in canvas order (top-left, top-right,
        bottom-left, bottom-right): (weights [M], flat texel offset)."""
        wx, wy, W = self.wx, self.wy, self.W
        return (((1 - wy) * (1 - wx), 0), ((1 - wy) * wx, 1),
                (wy * (1 - wx), W), (wy * wx, W + 1))


def bilinear_sample(tflat: np.ndarray, taps: BilinearTaps):
    """Sample tflat [C,H*W] at taps. Returns (values [C,M], slopes), where
    slopes = (x-slope of the top row, of the bottom row, y-slope) feed
    bilinear_uv_grad.

    One row of corners at a time, in place, so at most five [C,M] arrays
    are alive (the rasterizer calls this near its memory peak); the sums
    are the same as t00 + wx * (t01 - t00) and so on."""
    i, W = taps.idx, taps.W
    t00 = tflat.take(i, axis=1)
    sx_top = tflat.take(i + 1, axis=1)
    sx_top -= t00
    top = taps.wx * sx_top
    top += t00
    del t00
    t10 = tflat.take(i + W, axis=1)
    sx_bot = tflat.take(i + W + 1, axis=1)
    sx_bot -= t10
    sy = taps.wx * sx_bot                              # the bottom row, then sy
    sy += t10
    del t10
    sy -= top
    out = taps.wy * sy
    out += top
    return out, (sx_top, sx_bot, sy)


def bilinear_tex_grad(g: np.ndarray, taps: BilinearTaps, dtype) -> np.ndarray:
    """Texture gradient [C,H,W] of bilinear samples given their gradient
    g [C,M]. Each corner is one bincount over every channel's top-left
    texel index offset by c*H*W (so each bin sums its own channel's
    samples in order), added into the canvas at the corner's offset; the
    sums run in float64 in a fixed order and are then cast to dtype."""
    C = g.shape[0]
    H, W = taps.H, taps.W
    HW = H * W
    # the top-left texel is at most (H-2, W-2), so a corner's bins fit
    # in the canvas without the last `shift` texels
    idx = (taps.idx + HW * np.arange(C)[:, None]).ravel()
    out = np.zeros((C, HW))
    for w, shift in taps.corners():
        out[:, shift:] += np.bincount(idx, (g * w).ravel(),
                                      minlength=C * HW).reshape(C, HW)[:, :HW - shift]
    return out.astype(dtype).reshape(C, H, W)


def bilinear_uv_grad(g: np.ndarray, taps: BilinearTaps, slopes):
    """(du, dv), each [M], of bilinear samples given their gradient g [C,M]."""
    sx_top, sx_bot, sy = slopes
    wy = taps.wy
    du = (((1 - wy) * sx_top + wy * sx_bot) * g).sum(axis=0) * taps.W * taps.in_x
    dv = (sy * g).sum(axis=0) * taps.H * taps.in_y
    return du, dv


def texture_sample(tex: Tensor, uv):
    """Bilinear sample of tex [..., C,H,W] at uv [M,2] in [0,1]^2, an
    array or a Tensor.

    Texel centers sit at ((j+0.5)/W, (i+0.5)/H); coordinates clamp to the
    border. Returns [..., M,C]: leading axes (a batch of maps) sample the
    same points, each channel of each map on its own. Differentiable in
    tex, and in uv when uv is a Tensor (uv gradient is zero where the
    clamp saturates).
    """
    *lead, C, H, W = tex.shape
    uvd = uv.data if isinstance(uv, Tensor) else np.asarray(uv)
    taps = BilinearTaps(uvd[:, 0], uvd[:, 1], H, W, tex.dtype)
    M = taps.idx.shape[0]
    vals, slopes = bilinear_sample(tex.data.reshape(-1, H * W), taps)

    def bw(g, needs):
        gT = np.swapaxes(g, -1, -2).reshape(-1, M)         # [..*C,M]
        g_tex = (bilinear_tex_grad(gT, taps, tex.dtype).reshape(tex.shape)
                 if needs[0] else None)
        if not needs[1]:
            return g_tex, None
        du, dv = bilinear_uv_grad(gT, taps, slopes)
        return g_tex, np.stack([du, dv], axis=1).astype(uvd.dtype)

    return make_node(np.swapaxes(vals.reshape(*lead, C, M), -1, -2), (tex, uv),
                     bw, "texture_sample")


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Position of each element inside its run, for consecutive runs of
    `counts` elements."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


_INTERP_CACHE: dict = {}


def _interp_matrix(n_out: int, n_in: int, dtype) -> np.ndarray:
    key = (n_out, n_in, np.dtype(dtype).str)
    if key not in _INTERP_CACHE:
        M = np.zeros((n_out, n_in), dtype=dtype)
        for i in range(n_out):
            s = (i + 0.5) * n_in / n_out - 0.5
            s = min(max(s, 0.0), n_in - 1.0)
            i0 = min(int(np.floor(s)), max(n_in - 2, 0))
            t = s - i0
            M[i, i0] += 1.0 - t
            if n_in > 1:
                M[i, i0 + 1] += t
        _INTERP_CACHE[key] = M
    return _INTERP_CACHE[key]


def upsample2d(x: Tensor, factor: int):
    """Bilinear upsample of [..,H,W] by an integer factor via two constant
    interpolation matmuls (half-texel aligned, clamped at the border)."""
    H, W = x.shape[-2], x.shape[-1]
    Mr = _interp_matrix(H * factor, H, x.dtype)
    Mc = _interp_matrix(W * factor, W, x.dtype)
    y = ops.matmul(Mr, x)              # [..,H*f,W]
    return ops.matmul(y, Mc.T)         # [..,H*f,W*f]
