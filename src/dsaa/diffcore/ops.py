"""Differentiable ops: pointwise math, reductions, shape ops, and the
layers conv2d, conv_transpose2d and linear, each one tape node that
applies its own activation (act = "leaky", "sigmoid" or None); add takes
act as well, for a layer whose bias is added after its product.

Python-number operands stay raw scalars (keeps float32 graphs float32
under NEP 50 promotion); numpy-array operands are treated as constants
unless wrapped in a Tensor. Gather/scatter style ops live in geom.py.

Both convolutions are three matrix products around one layout pair,
channel-first so that a product's [C, N*H*W] result is NCHW at N=1:
_im2col copies the windows of x, zero-padded, into the columns of a
[C*kh*kw, N*Ho*Wo] matrix, and _col2im adds such columns back into x,
dropping the taps in the padding, so no padded copy is made. conv2d is
W @ im2col(x), with weight gradient g @ colᵀ and input gradient
col2im(Wᵀ @ g); conv_transpose2d, its adjoint, swaps the two. Only
those two helpers know the window layout.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, make_node


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _raw(x):
    return x.data if isinstance(x, Tensor) else x


def _expit(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic: 1 / (1 + e) for x >= 0 and e / (1 + e)
    below, with e = exp(-|x|) <= 1."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1 + e)


# ---------------------------------------------------------------- arithmetic

def add(a, b, act=None):
    """a + b, then act (as a layer applies it)."""
    ad, bd = _raw(a), _raw(b)
    out, act_bw = _activate(ad + bd, act)

    def bw(g):
        g = act_bw(g)
        if isinstance(a, Tensor) and a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return make_node(out, (a, b), bw, "add")


def sub(a, b):
    ad, bd = _raw(a), _raw(b)
    out = ad - bd

    def bw(g):
        if isinstance(a, Tensor) and a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.shape))

    return make_node(out, (a, b), bw, "sub")


def neg(a):
    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(-g)

    return make_node(-a.data, (a,), bw, "neg")


def mul(a, b):
    ad, bd = _raw(a), _raw(b)
    out = ad * bd

    def bw(g):
        if isinstance(a, Tensor) and a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * bd, a.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * ad, b.shape))

    return make_node(out, (a, b), bw, "mul")


def reciprocal(a):
    """1/a. Caller guarantees a is bounded away from zero."""
    y = 1.0 / a.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(-g * y * y)

    return make_node(y, (a,), bw, "reciprocal")


def matmul(a, b):
    ad, bd = _raw(a), _raw(b)
    out = ad @ bd

    def bw(g):
        if isinstance(a, Tensor) and a.requires_grad:
            a.accumulate_grad(_unbroadcast(g @ bd.swapaxes(-1, -2), a.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b.accumulate_grad(_unbroadcast(ad.swapaxes(-1, -2) @ g, b.shape))

    return make_node(out, (a, b), bw, "matmul")


# ---------------------------------------------------------------- pointwise

def exp(a):
    y = np.exp(a.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * y)

    return make_node(y, (a,), bw, "exp")


def log(a):
    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g / a.data)

    return make_node(np.log(a.data), (a,), bw, "log")


def tanh(a):
    y = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - y * y))

    return make_node(y, (a,), bw, "tanh")


def relu(a):
    d = a.data
    y = np.maximum(d, 0.0)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * (d > 0.0))

    return make_node(y, (a,), bw, "relu")


# the negative slope: max(d, alpha * d) is the leaky ReLU only for
# 0 <= alpha <= 1, and the backward's slope on d > 0 is exactly 1 only if
# (1 - alpha) + alpha == 1.0
LEAKY_ALPHA = 0.1


def softplus(a):
    """log(1 + exp(a)) as max(a, 0) + log1p(e), e = exp(-|a|) <= 1."""
    d = a.data
    y = np.maximum(d, 0.0) + np.log1p(np.exp(-np.abs(d)))

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * _expit(d))

    return make_node(y, (a,), bw, "softplus")


def sigmoid(a):
    y = _expit(a.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * y * (1.0 - y))

    return make_node(y, (a,), bw, "sigmoid")


def minimum(a, b):
    """Elementwise min; on ties the gradient goes to the first argument."""
    ad, bd = _raw(a), _raw(b)
    take_a = ad <= bd
    out = np.where(take_a, ad, bd)

    def bw(g):
        if isinstance(a, Tensor) and a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * take_a, a.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * ~take_a, b.shape))

    return make_node(out, (a, b), bw, "minimum")


def maximum(a, b):
    """Elementwise max; on ties the gradient goes to the first argument."""
    ad, bd = _raw(a), _raw(b)
    take_a = ad >= bd
    out = np.where(take_a, ad, bd)

    def bw(g):
        if isinstance(a, Tensor) and a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * take_a, a.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * ~take_a, b.shape))

    return make_node(out, (a, b), bw, "maximum")


def clamp(a, lo: float, hi: float):
    """Clip to [lo, hi]; zero subgradient on the saturated set."""
    d = a.data
    y = np.clip(d, lo, hi)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * ((d > lo) & (d < hi)))

    return make_node(y, (a,), bw, "clamp")


# ---------------------------------------------------------------- reductions

def sum_(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate_grad(np.broadcast_to(g, a.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(g, a.shape).copy())

    return make_node(out, (a,), bw, "sum")


def mean_(a, axis=None, keepdims=False):
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.size // out.size

    def bw(g):
        if not a.requires_grad:
            return
        g = g / n
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(g, a.shape).copy())

    return make_node(out, (a,), bw, "mean")


# ---------------------------------------------------------------- shape ops

def reshape(a, shape):
    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return make_node(a.data.reshape(shape), (a,), bw, "reshape")


def transpose(a, axes=None):
    def bw(g):
        if a.requires_grad:
            inv = None if axes is None else tuple(np.argsort(axes))
            a.accumulate_grad(np.transpose(g, inv))

    return make_node(np.transpose(a.data, axes), (a,), bw, "transpose")


def broadcast_to(a, shape):
    out = np.broadcast_to(a.data, shape).copy()

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))

    return make_node(out, (a,), bw, "broadcast_to")


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = np.concatenate([_raw(t) for t in tensors], axis=axis)
    sizes = [(_raw(t)).shape[axis] for t in tensors]

    def bw(g):
        ofs = 0
        for t, s in zip(tensors, sizes):
            if isinstance(t, Tensor) and t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(ofs, ofs + s)
                t.accumulate_grad(g[tuple(sl)])
            ofs += s

    return make_node(out, tuple(tensors), bw, "concat")


def stack(tensors, axis=0):
    tensors = list(tensors)
    out = np.stack([_raw(t) for t in tensors], axis=axis)

    def bw(g):
        for i, t in enumerate(tensors):
            if isinstance(t, Tensor) and t.requires_grad:
                t.accumulate_grad(np.take(g, i, axis=axis))

    return make_node(out, tuple(tensors), bw, "stack")


def _is_basic_index(idx) -> bool:
    """True for ints, slices, Ellipsis and None (alone or in a tuple):
    indices that select each element at most once."""
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(i is None or i is Ellipsis or isinstance(i, slice)
               or (isinstance(i, (int, np.integer))
                   and not isinstance(i, (bool, np.bool_)))
               for i in items)


def getitem(a, idx):
    out = a.data[idx]
    basic = _is_basic_index(idx)

    def bw(g):
        if a.requires_grad:
            dz = np.zeros_like(a.data)
            if basic:
                dz[idx] += g
            else:      # array indices may repeat; add.at sums duplicates
                np.add.at(dz, idx, g)
            a.accumulate_grad(dz)

    return make_node(out, (a,), bw, "getitem")


# ------------------------------------------------------------------- layers

def _activate(z: np.ndarray, act):
    """act ("leaky", "sigmoid" or None) of a layer's pre-activation z, and
    the map from a gradient at that output back to one at z."""
    if act is None:
        return z, lambda g: g
    if act == "leaky":
        y = np.maximum(z, LEAKY_ALPHA * z)
        # y > 0 exactly where z > 0. The slope is float64, so g * slope is
        # rounded once to g's dtype: a float32 g * float32(LEAKY_ALPHA)
        # rounds ~10% of the negative side otherwise, changing checkpoints.
        return y, lambda g: (g * ((y > 0.0) * (1.0 - LEAKY_ALPHA) + LEAKY_ALPHA)
                             ).astype(g.dtype, copy=False)
    if act == "sigmoid":
        y = _expit(z)
        return y, lambda g: g * y * (1.0 - y)
    raise ValueError(f"unknown activation {act!r}")


def _taps(u: int, s: int, p: int, n: int, m: int):
    """Tap u of m windows at stride s over an n-long axis padded by p: the
    windows whose tap lands inside the axis and the slice they read."""
    lo = max(0, -((u - p) // s))
    hi = max(lo, min(m, (n - 1 + p - u) // s + 1))
    first = s * lo + u - p
    return slice(lo, hi), slice(first, first + s * (hi - lo), s)


def _im2col(x: np.ndarray, kh: int, kw: int, s: int, p: int,
            Ho: int, Wo: int) -> np.ndarray:
    """The kh x kw windows at stride s of x [N,C,H,W] zero-padded by p as a
    [C*kh*kw, N*Ho*Wo] matrix: rows run over (c, u, v), the weight's own
    order; columns over (n, i, j), so column (n, i, j) is window (i, j)
    of the padded x[n] flattened. One strided slice copy per (u, v)
    fills the taps inside x; the rest stay zero."""
    N, C, H, W = x.shape
    col = np.zeros((C, kh, kw, N, Ho, Wo), dtype=x.dtype)
    for u, v in np.ndindex(kh, kw):
        (wi, rows), (wj, cols) = _taps(u, s, p, H, Ho), _taps(v, s, p, W, Wo)
        col[:, u, v, :, wi, wj] = x[:, :, rows, cols].transpose(1, 0, 2, 3)
    return col.reshape(C * kh * kw, N * Ho * Wo)


def _col2im(col: np.ndarray, shape, kh: int, kw: int, s: int, p: int,
            Ho: int, Wo: int) -> np.ndarray:
    """Adjoint of _im2col: add the columns of col [C*kh*kw, N*Ho*Wo] into
    their windows of a zero [N,C,H,W] array `shape`, dropping the taps in
    the padding. Overlapping windows sum, in (u, v) order."""
    N, C, H, W = shape
    col = col.reshape(C, kh, kw, N, Ho, Wo)
    out = np.zeros(shape, dtype=col.dtype)
    for u, v in np.ndindex(kh, kw):
        (wi, rows), (wj, cols) = _taps(u, s, p, H, Ho), _taps(v, s, p, W, Wo)
        out[:, :, rows, cols] += col[:, u, v, :, wi, wj].transpose(1, 0, 2, 3)
    return out


def conv2d(x, w, b=None, stride: int = 1, padding: int = 0, act=None):
    """x [N,Ci,H,W], w [Co,Ci,kh,kw], b [Co] or None: correlation, then act."""
    xd, wd = x.data, w.data
    N, Ci, H, W = xd.shape
    Co, Ci2, kh, kw = wd.shape
    assert Ci == Ci2, (Ci, Ci2)
    s, p = stride, padding
    Ho = (H + 2 * p - kh) // s + 1
    Wo = (W + 2 * p - kw) // s + 1

    col = _im2col(xd, kh, kw, s, p, Ho, Wo)
    w2 = wd.reshape(Co, Ci * kh * kw)
    out2 = w2 @ col if b is None else w2 @ col + b.data[:, None]
    out, act_bw = _activate(out2.reshape(Co, N, Ho, Wo).transpose(1, 0, 2, 3), act)

    def bw(g):
        g = act_bw(g)
        g2 = g.transpose(1, 0, 2, 3).reshape(Co, N * Ho * Wo)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            w.accumulate_grad((g2 @ col.T).reshape(wd.shape))
        if x.requires_grad:
            x.accumulate_grad(_col2im(w2.T @ g2, xd.shape, kh, kw, s, p, Ho, Wo))

    return make_node(out, (x, w, b), bw, "conv2d")


def conv_transpose2d(x, w, b=None, stride: int = 2, padding: int = 1, act=None):
    """Adjoint of conv2d, then act. x [N,Ci,H,W], w [Ci,Co,kh,kw].

    The forward is conv2d's input gradient and the input gradient is
    conv2d's forward, with the weight read as [Ci, Co*kh*kw]. With
    kh=kw=4, stride=2, padding=1 this is an exact 2x upsampler.
    """
    xd, wd = x.data, w.data
    N, Ci, H, W = xd.shape
    Ci2, Co, kh, kw = wd.shape
    assert Ci == Ci2, (Ci, Ci2)
    s, p = stride, padding
    Ho = (H - 1) * s + kh - 2 * p
    Wo = (W - 1) * s + kw - 2 * p

    x2 = xd.transpose(1, 0, 2, 3).reshape(Ci, N * H * W)
    w2 = wd.reshape(Ci, Co * kh * kw)
    yf = _col2im(w2.T @ x2, (N, Co, Ho, Wo), kh, kw, s, p, H, W)
    out, act_bw = _activate(yf if b is None else yf + b.data[None, :, None, None], act)

    def bw(g):
        g = act_bw(g)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        col = _im2col(g, kh, kw, s, p, H, W)
        if x.requires_grad:
            x.accumulate_grad((w2 @ col).reshape(Ci, N, H, W).transpose(1, 0, 2, 3))
        if w.requires_grad:
            w.accumulate_grad((x2 @ col.T).reshape(wd.shape))

    return make_node(out, (x, w, b), bw, "conv_transpose2d")


def linear(x, w, b=None, act=None):
    """x [B, din] @ w [din, dout] (+ b [dout]), then act."""
    xd, wd = x.data, w.data
    out, act_bw = _activate(xd @ wd if b is None else xd @ wd + b.data, act)

    def bw(g):
        g = act_bw(g)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))
        if x.requires_grad:
            x.accumulate_grad(g @ wd.T)
        if w.requires_grad:
            w.accumulate_grad(xd.T @ g)

    return make_node(out, (x, w, b), bw, "linear")
