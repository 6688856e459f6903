"""Reference conv2d and conv_transpose2d for the kernel tests: the
pixel-major (NHWC) forms that ``dsaa.diffcore.ops`` used before it moved
both convolutions to a channel-first layout. The convolution's input
gradient is k*k strided adds; the transpose is ``tensordot`` plus a k*k
strided scatter. ``windows`` and ``add_windows`` are the oracle's window
matrix and strided-add loop: the channel-first ``_im2col`` must equal the
first transposed, and ``_col2im`` the second, bit for bit. The products
built on them sum in another order under BLAS, so forwards and weight and
input gradients agree to rounding only; bias gradients are bit for bit.
``leaky_relu`` is the separate activation node that the layers' fused
``act="leaky"`` must reproduce byte for byte. Test oracle only;
production code calls ``dsaa.diffcore``.
"""

from __future__ import annotations

import numpy as np

from dsaa.diffcore.ops import LEAKY_ALPHA
from dsaa.diffcore.tensor import make_node


def leaky_relu(a):
    """max(d, LEAKY_ALPHA * d), with the slope of its backward a float64
    array whatever the dtype of d."""
    d = a.data
    y = np.maximum(d, LEAKY_ALPHA * d)

    def bw(g, needs):
        return (g * ((d > 0.0) * (1.0 - LEAKY_ALPHA) + LEAKY_ALPHA),)

    return make_node(y, (a,), bw, "leaky_relu")


def windows(xp: np.ndarray, kh: int, kw: int, s: int,
            Ho: int, Wo: int) -> np.ndarray:
    """The kh x kw windows of xp [N,C,Hp,Wp] at stride s as the rows of an
    [N*Ho*Wo, C*kh*kw] matrix: rows over (n, i, j), columns over (c, u, v)."""
    N, C = xp.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::s, ::s]                      # [N,C,Ho,Wo,kh,kw]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(N * Ho * Wo, C * kh * kw)


def add_windows(rows: np.ndarray, shape, kh: int, kw: int, s: int,
                Ho: int, Wo: int) -> np.ndarray:
    """Adjoint of windows: add the rows of an [N*Ho*Wo, C*kh*kw] matrix back
    into their windows of a zero array `shape`, one strided add per (u, v)."""
    N, C = shape[:2]
    rows = rows.reshape(N, Ho, Wo, C, kh, kw)
    out = np.zeros(shape, dtype=rows.dtype)
    for u in range(kh):
        for v in range(kw):
            out[:, :, u:u + s * Ho:s, v:v + s * Wo:s] += \
                rows[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    return out


def conv2d(x, w, b=None, stride: int = 1, padding: int = 0):
    """x [N,Ci,H,W], w [Co,Ci,kh,kw], b [Co] or None. Plain cross-correlation."""
    xd, wd = x.data, w.data
    N, Ci, H, W = xd.shape
    Co, Ci2, kh, kw = wd.shape
    assert Ci == Ci2, (Ci, Ci2)
    s, p = stride, padding
    xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p))) if p else xd
    Ho = (H + 2 * p - kh) // s + 1
    Wo = (W + 2 * p - kw) // s + 1

    col = windows(xp, kh, kw, s, Ho, Wo)
    w2 = wd.reshape(Co, Ci * kh * kw)
    out2 = col @ w2.T
    if b is not None:
        out2 = out2 + b.data
    out = out2.reshape(N, Ho, Wo, Co).transpose(0, 3, 1, 2)

    def bw(g, needs):
        g2 = g.transpose(0, 2, 3, 1).reshape(N * Ho * Wo, Co)
        dx = None
        if needs[0]:
            dxp = add_windows(g2 @ w2, xp.shape, kh, kw, s, Ho, Wo)
            dx = dxp[:, :, p:p + H, p:p + W] if p else dxp
        return (dx, (g2.T @ col).reshape(wd.shape) if needs[1] else None,
                g2.sum(axis=0) if needs[2] else None)

    return make_node(out, (x, w, b), bw, "conv2d")


def conv_transpose2d(x, w, b=None, stride: int = 2, padding: int = 1):
    """Adjoint of conv2d. x [N,Ci,H,W], w [Ci,Co,kh,kw].

    With kh=kw=4, stride=2, padding=1 this is an exact 2x upsampler.
    """
    xd, wd = x.data, w.data
    N, Ci, H, W = xd.shape
    Ci2, Co, kh, kw = wd.shape
    assert Ci == Ci2, (Ci, Ci2)
    s, p = stride, padding
    Hf = (H - 1) * s + kh
    Wf = (W - 1) * s + kw

    xw = np.tensordot(xd, wd, axes=([1], [0]))     # [N,H,W,Co,kh,kw]
    yf = np.zeros((N, Co, Hf, Wf), dtype=xd.dtype)
    for u in range(kh):
        for v in range(kw):
            yf[:, :, u:u + s * (H - 1) + 1:s, v:v + s * (W - 1) + 1:s] += \
                xw[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    out = yf[:, :, p:Hf - p, p:Wf - p] if p else yf
    if b is not None:
        out = out + b.data[None, :, None, None]

    def bw(g, needs):
        gf = np.zeros((N, Co, Hf, Wf), dtype=g.dtype)
        if p:
            gf[:, :, p:Hf - p, p:Wf - p] = g
        else:
            gf = g
        dxw = np.empty((N, H, W, Co, kh, kw), dtype=g.dtype)
        for u in range(kh):
            for v in range(kw):
                dxw[:, :, :, :, u, v] = \
                    gf[:, :, u:u + s * (H - 1) + 1:s, v:v + s * (W - 1) + 1:s].transpose(0, 2, 3, 1)
        dx = dw = None
        if needs[0]:
            dx = np.tensordot(dxw, wd, axes=([3, 4, 5], [1, 2, 3]))   # [N,H,W,Ci]
            dx = dx.transpose(0, 3, 1, 2)
        if needs[1]:
            xt = xd.transpose(0, 2, 3, 1)
            dw = np.tensordot(xt, dxw, axes=([0, 1, 2], [0, 1, 2]))   # [Ci,Co,kh,kw]
        return dx, dw, g.sum(axis=(0, 2, 3)) if needs[2] else None

    return make_node(out, (x, w, b), bw, "conv_transpose2d")
