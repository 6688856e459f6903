"""Differentiable ops: pointwise math, reductions, shape ops, and the
layers conv2d, conv_transpose2d and linear, each one tape node that
applies its own activation (act = "leaky", "sigmoid" or None); add takes
act as well, for a layer whose bias is added after its product.

Python-number operands stay raw scalars (keeps float32 graphs float32
under NEP 50 promotion); numpy-array operands are constants unless
wrapped in a Tensor. Each backward states the op's local derivatives
only: it returns one gradient per operand, computing none that `needs`
leaves out, and the tape (tensor.py) sums and adds them. Gather/scatter
style ops live in geom.py.

Both convolutions are three matrix products around one layout pair,
channel-first so that a product's [C, N*H*W] result is NCHW at N=1:
_im2col reads the windows of x, zero-padded, as one strided view and
copies it into the columns of a [C*kh*kw, N*Ho*Wo] matrix, and _col2im
adds such columns back into x, dropping the taps in the padding, by one
strided add per tap, in (u, v) order from zero, as a plain loop over the
taps would. conv2d is W @ im2col(x), with weight gradient g @ colᵀ and
input gradient col2im(Wᵀ @ g); conv_transpose2d, its adjoint, swaps the
two. Only those two helpers know the window layout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, make_node


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
    out, act_bw = _activate(_raw(a) + _raw(b), act)

    def bw(g, needs):
        g = act_bw(g)
        return g, g

    return make_node(out, (a, b), bw, "add")


def sub(a, b):
    return make_node(_raw(a) - _raw(b), (a, b),
                     lambda g, needs: (g, -g if needs[1] else None), "sub")


def neg(a):
    return make_node(-a.data, (a,), lambda g, needs: (-g,), "neg")


def mul(a, b):
    ad, bd = _raw(a), _raw(b)
    return make_node(ad * bd, (a, b), lambda g, needs: (
        g * bd if needs[0] else None, g * ad if needs[1] else None), "mul")


def reciprocal(a):
    """1/a. Caller guarantees a is bounded away from zero."""
    y = 1.0 / a.data
    return make_node(y, (a,), lambda g, needs: (-g * y * y,), "reciprocal")


def matmul(a, b):
    ad, bd = _raw(a), _raw(b)
    return make_node(ad @ bd, (a, b), lambda g, needs: (
        g @ bd.swapaxes(-1, -2) if needs[0] else None,
        ad.swapaxes(-1, -2) @ g if needs[1] else None), "matmul")


# ---------------------------------------------------------------- pointwise

def exp(a):
    y = np.exp(a.data)
    return make_node(y, (a,), lambda g, needs: (g * y,), "exp")


def log(a):
    return make_node(np.log(a.data), (a,), lambda g, needs: (g / a.data,), "log")


def tanh(a):
    y = np.tanh(a.data)
    return make_node(y, (a,), lambda g, needs: (g * (1.0 - y * y),), "tanh")


def relu(a):
    d = a.data
    return make_node(np.maximum(d, 0.0), (a,), lambda g, needs: (g * (d > 0.0),),
                     "relu")


# the negative slope: max(d, alpha * d) is the leaky ReLU only for
# 0 <= alpha <= 1, and the backward's slope on d > 0 is exactly 1 only if
# (1 - alpha) + alpha == 1.0
LEAKY_ALPHA = 0.1


def softplus(a):
    """log(1 + exp(a)) as max(a, 0) + log1p(e), e = exp(-|a|) <= 1."""
    d = a.data
    y = np.maximum(d, 0.0) + np.log1p(np.exp(-np.abs(d)))
    return make_node(y, (a,), lambda g, needs: (g * _expit(d),), "softplus")


def sigmoid(a):
    y = _expit(a.data)
    return make_node(y, (a,), lambda g, needs: (g * y * (1.0 - y),), "sigmoid")


def _select(a, b, take_a, name):
    """a where take_a, else b; the gradient follows the selection."""
    return make_node(np.where(take_a, _raw(a), _raw(b)), (a, b), lambda g, needs: (
        g * take_a if needs[0] else None, g * ~take_a if needs[1] else None), name)


def minimum(a, b):
    """Elementwise min; on ties the gradient goes to the first argument."""
    return _select(a, b, _raw(a) <= _raw(b), "minimum")


def maximum(a, b):
    """Elementwise max; on ties the gradient goes to the first argument."""
    return _select(a, b, _raw(a) >= _raw(b), "maximum")


def clamp(a, lo: float, hi: float):
    """Clip to [lo, hi]; zero subgradient on the saturated set."""
    d = a.data
    return make_node(np.clip(d, lo, hi), (a,),
                     lambda g, needs: (g * ((d > lo) & (d < hi)),), "clamp")


# ---------------------------------------------------------------- reductions

def _spread(g, a, axis, keepdims):
    """A reduction's gradient g broadcast back over a's shape (a view)."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, a.shape)


def sum_(a, axis=None, keepdims=False):
    return make_node(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                     lambda g, needs: (_spread(g, a, axis, keepdims),), "sum")


def mean_(a, axis=None, keepdims=False):
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.size // out.size
    return make_node(out, (a,), lambda g, needs: (_spread(g / n, a, axis, keepdims),),
                     "mean")


# ---------------------------------------------------------------- shape ops

def reshape(a, shape):
    return make_node(a.data.reshape(shape), (a,),
                     lambda g, needs: (g.reshape(a.shape),), "reshape")


def transpose(a, axes=None):
    inv = None if axes is None else tuple(np.argsort(axes))
    return make_node(np.transpose(a.data, axes), (a,),
                     lambda g, needs: (np.transpose(g, inv),), "transpose")


def broadcast_to(a, shape):
    return make_node(np.broadcast_to(a.data, shape).copy(), (a,),
                     lambda g, needs: (g,), "broadcast_to")


def concat(tensors, axis=0):
    tensors = tuple(tensors)
    sizes = [_raw(t).shape[axis] for t in tensors]
    return make_node(np.concatenate([_raw(t) for t in tensors], axis=axis), tensors,
                     lambda g, needs: np.split(g, np.cumsum(sizes[:-1]), axis=axis),
                     "concat")


def stack(tensors, axis=0):
    tensors = tuple(tensors)
    return make_node(np.stack([_raw(t) for t in tensors], axis=axis), tensors,
                     lambda g, needs: tuple(np.moveaxis(g, axis, 0)), "stack")


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

    def bw(g, needs):
        dz = np.zeros_like(a.data)
        if basic:
            dz[idx] += g
        else:      # array indices may repeat; add.at sums duplicates
            np.add.at(dz, idx, g)
        return (dz,)

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


def _im2col(x: np.ndarray, kh: int, kw: int, s: int, p: int,
            Ho: int, Wo: int) -> np.ndarray:
    """The kh x kw windows at stride s of x [N,C,H,W] zero-padded by p as a
    [C*kh*kw, N*Ho*Wo] matrix: rows run over (c, u, v), the weight's own
    order; columns over (n, i, j), so column (n, i, j) is window (i, j)
    of the padded x[n] flattened. One zero-padded copy of x (none when
    p = 0) is read as a read-only [C,kh,kw,N,Ho,Wo] window view, in
    (c, u, v, n, i, j) order, and the reshape copies that view once: for
    an N=1 1x1 conv at stride 1 over an unpadded C-contiguous x it is a
    view of x, and nothing is copied."""
    N, C, H, W = x.shape
    if p:
        xp = np.zeros((N, C, H + 2 * p, W + 2 * p), dtype=x.dtype)
        xp[:, :, p:p + H, p:p + W] = x
    else:
        xp = x
    sn, sc, sh, sw = xp.strides
    win = as_strided(xp, (C, kh, kw, N, Ho, Wo), (sc, sh, sw, sn, s * sh, s * sw),
                     writeable=False)
    return win.reshape(C * kh * kw, N * Ho * Wo)


@lru_cache(maxsize=None)
def _tap_slices(kh: int, kw: int, s: int, p: int, H: int, W: int,
                Ho: int, Wo: int) -> tuple:
    """Per tap (u, v), in that order: its index into col viewed as
    [C,kh,kw,N,Ho,Wo] (the windows whose tap lies inside the canvas) and
    into the [N,C,H,W] canvas (the pixels that tap lands on)."""
    def axis(k, n, m):      # per tap of an n-long axis with m windows
        taps = []
        for t in range(k):
            lo = max(0, -((t - p) // s))
            hi = max(lo, min(m, (n - 1 + p - t) // s + 1))
            first = s * lo + t - p
            taps.append((slice(lo, hi), slice(first, first + s * (hi - lo), s)))
        return taps

    rows, cols = axis(kh, H, Ho), axis(kw, W, Wo)
    return tuple(((slice(None), u, v, slice(None), rows[u][0], cols[v][0]),
                  (slice(None), slice(None), rows[u][1], cols[v][1]))
                 for u, v in np.ndindex(kh, kw))


def _col2im(col: np.ndarray, shape, kh: int, kw: int, s: int, p: int,
            Ho: int, Wo: int) -> np.ndarray:
    """Adjoint of _im2col: add the columns of col [C*kh*kw, N*Ho*Wo] into
    their windows of a zero [N,C,H,W] array `shape`, dropping the taps in
    the padding. Each tap (u, v) is added whole, in (u, v) order, as
    N*C*Ho strided rows of Wo entries: each pixel is 0 plus its taps one
    at a time, in that order and in col's dtype."""
    N, C, H, W = shape
    col = col.reshape(C, kh, kw, N, Ho, Wo)
    out = np.zeros(shape, dtype=col.dtype)
    for src, dst in _tap_slices(kh, kw, s, p, H, W, Ho, Wo):
        view = out[dst]     # out[dst] += ... would copy the sum back
        np.add(view, col[src].transpose(1, 0, 2, 3), out=view)
    return out


def conv2d(x, w, b=None, stride: int = 1, padding: int = 0, act=None):
    """x [N,Ci,H,W], w [Co,Ci,kh,kw], b [Co] or None: correlation, then act."""
    xd, wd = x.data, w.data
    N, Ci, H, W = xd.shape
    Co, Ci2, kh, kw = wd.shape
    if Ci != Ci2:
        raise ValueError(f"conv2d: input {xd.shape} has {Ci} channels, "
                         f"weight {wd.shape} takes {Ci2}")
    s, p = stride, padding
    Ho = (H + 2 * p - kh) // s + 1
    Wo = (W + 2 * p - kw) // s + 1

    col = _im2col(xd, kh, kw, s, p, Ho, Wo)
    w2 = wd.reshape(Co, Ci * kh * kw)
    out2 = w2 @ col if b is None else w2 @ col + b.data[:, None]
    out, act_bw = _activate(out2.reshape(Co, N, Ho, Wo).transpose(1, 0, 2, 3), act)

    def bw(g, needs):
        g = act_bw(g)
        g2 = g.transpose(1, 0, 2, 3).reshape(Co, N * Ho * Wo)
        return (_col2im(w2.T @ g2, xd.shape, kh, kw, s, p, Ho, Wo) if needs[0] else None,
                (g2 @ col.T).reshape(wd.shape) if needs[1] else None,
                g.sum(axis=(0, 2, 3)) if needs[2] else None)

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
    if Ci != Ci2:
        raise ValueError(f"conv_transpose2d: input {xd.shape} has {Ci} channels, "
                         f"weight {wd.shape} takes {Ci2}")
    s, p = stride, padding
    Ho = (H - 1) * s + kh - 2 * p
    Wo = (W - 1) * s + kw - 2 * p

    x2 = xd.transpose(1, 0, 2, 3).reshape(Ci, N * H * W)
    w2 = wd.reshape(Ci, Co * kh * kw)
    yf = _col2im(w2.T @ x2, (N, Co, Ho, Wo), kh, kw, s, p, H, W)
    out, act_bw = _activate(yf if b is None else yf + b.data[None, :, None, None], act)

    def bw(g, needs):
        g = act_bw(g)
        col = _im2col(g, kh, kw, s, p, H, W)
        return ((w2 @ col).reshape(Ci, N, H, W).transpose(1, 0, 2, 3) if needs[0] else None,
                (x2 @ col.T).reshape(wd.shape) if needs[1] else None,
                g.sum(axis=(0, 2, 3)) if needs[2] else None)

    return make_node(out, (x, w, b), bw, "conv_transpose2d")


def linear(x, w, b=None, act=None):
    """x [B, din] @ w [din, dout] (+ b [dout]), then act."""
    xd, wd = x.data, w.data
    out, act_bw = _activate(xd @ wd if b is None else xd @ wd + b.data, act)

    def bw(g, needs):
        g = act_bw(g)
        return (g @ wd.T if needs[0] else None, xd.T @ g if needs[1] else None,
                g.sum(axis=0) if needs[2] else None)

    return make_node(out, (x, w, b), bw, "linear")
