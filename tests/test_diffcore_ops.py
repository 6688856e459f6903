"""Finite-difference oracles for every differentiable op, plus the few
hand-computable forward cases."""

import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dsaa import body, diffcore as dc
from dsaa.diffcore.tensor import make_node
from dsaa.diffcore.ops import LEAKY_ALPHA, _expit
from dsaa.diffcore.geom import BilinearTaps, bilinear_tex_grad
from raster_oracle import bilinear_tex_grad_per_channel, scatter_add_window
from fd import gradcheck


def rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------ forward values

def test_matmul_identity():
    A = rng(1).normal(size=(4, 4))
    out = dc.matmul(dc.Tensor(A), dc.Tensor(np.eye(4)))
    npt.assert_array_equal(out.data, A)


def test_relu_values():
    x = dc.Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    npt.assert_array_equal(dc.relu(x).data, [0.0, 0.0, 0.0, 0.5, 2.0])


def test_conv2d_identity_kernel():
    x = dc.Tensor(rng(2).normal(size=(1, 1, 5, 5)))
    w = dc.Tensor(np.ones((1, 1, 1, 1)))
    out = dc.conv2d(x, w)
    npt.assert_array_equal(out.data, x.data)


def test_conv2d_against_naive():
    r = rng(3)
    x = dc.Tensor(r.normal(size=(2, 3, 6, 7)))
    w = dc.Tensor(r.normal(size=(4, 3, 3, 3)))
    b = dc.Tensor(r.normal(size=(4,)))
    out = dc.conv2d(x, w, b, stride=2, padding=1).data

    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = np.zeros_like(out)
    for n in range(2):
        for co in range(4):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    patch = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                    ref[n, co, i, j] = (patch * w.data[co]).sum() + b.data[co]
    npt.assert_allclose(out, ref, rtol=1e-12)


def test_conv_transpose_is_conv_adjoint():
    # <conv(x), y> == <x, convT(y)> with shared weights
    r = rng(4)
    x = r.normal(size=(1, 2, 8, 8))
    y = r.normal(size=(1, 3, 4, 4))
    w = r.normal(size=(3, 2, 4, 4))      # conv weight [Co,Ci,kh,kw]
    cx = dc.conv2d(dc.Tensor(x), dc.Tensor(w), stride=2, padding=1).data
    # transpose weight layout is [Cin,Cout,kh,kw]; the adjoint reuses w as-is
    cty = dc.conv_transpose2d(dc.Tensor(y), dc.Tensor(w), stride=2, padding=1).data
    npt.assert_allclose((cx * y).sum(), (x * cty).sum(), rtol=1e-10)


def test_backward_square():
    x = dc.Tensor(np.array([3.0]), requires_grad=True)
    y = dc.sum_(dc.mul(x, x))
    dc.backward(y)
    npt.assert_allclose(x.grad, [6.0])


def test_texture_sample_center_and_corners():
    tex = dc.Tensor(np.arange(12, dtype=np.float64).reshape(1, 3, 4))
    # dead center of texel (1,2) -> exact value 6
    uv = np.array([[(2 + 0.5) / 4, (1 + 0.5) / 3]])
    out = dc.texture_sample(tex, uv)
    npt.assert_allclose(out.data, [[6.0]])
    # halfway between texels (0,0) and (0,1): mean of 0 and 1
    uv = np.array([[(0.5 + 0.5) / 4, 0.5 / 3]])
    npt.assert_allclose(dc.texture_sample(tex, uv).data, [[0.5]])


def test_scatter_add_window_places_values():
    vals = dc.Tensor(np.ones((1, 2, 2, 2)))
    oy = np.array([[0, 1]])
    ox = np.array([[0, 1]])
    out = scatter_add_window(vals, oy, ox, 3, 3).data[0]
    # windows overlap on the middle texel
    npt.assert_array_equal(out, [[1, 1, 0], [1, 2, 1], [0, 1, 1]])


def test_scatter_add_window_clips_out_of_canvas():
    vals = dc.Tensor(np.ones((1, 1, 2, 2)))
    out = scatter_add_window(vals, np.array([[-1]]), np.array([[2]]), 3, 3).data[0]
    npt.assert_array_equal(out, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])


# ------------------------------------------- mask-free pointwise kernels

def _expit_masked(x):
    """The boolean-index logistic that _expit replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _edge_values(dtype):
    """Signed zeros, infinities, subnormals, the extremes, values on both
    sides of the kinks at 0 and where exp under- or overflows, and a
    random spread."""
    fi = np.finfo(dtype)
    tiny, sub = float(fi.tiny), float(fi.smallest_subnormal)
    edges = [0.0, np.inf, tiny, sub, tiny / 3, 7 * sub, float(fi.eps),
             float(fi.max), 1e-30, 0.5, 1.0, 16.0, 17.0, 36.0, 37.0, 88.0,
             89.0, 104.0, 710.0, 746.0]
    spread = rng(40).normal(size=200) * np.repeat([1e-3, 1.0, 30.0], [50, 100, 50])
    x = np.concatenate([edges, spread])
    return np.concatenate([x, -x]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_expit_bytes_match_masked_form(dtype):
    x = _edge_values(dtype)
    with np.errstate(over="ignore"):
        want = _expit_masked(x)
    got = _expit(x)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


def _leaky_unit(x):
    """x [n] through a 1 -> 1 linear layer of weight 1 with the fused
    leaky activation, as [n, 1]."""
    one = dc.Tensor(np.ones((1, 1), dtype=x.dtype))
    return dc.linear(dc.reshape(x, (-1, 1)), one, act="leaky")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_bytes_match_where_form(dtype):
    alpha = LEAKY_ALPHA
    assert 0.0 <= alpha <= 1.0 and (1.0 - alpha) + alpha == 1.0
    x = dc.Tensor(_edge_values(dtype), requires_grad=True)
    d = dc.reshape(x, (-1, 1)).data @ np.ones((1, 1), dtype=dtype)
    g = rng(41).normal(size=d.shape).astype(dtype)
    y = _leaky_unit(x)
    dc.backward(y, g)
    assert y.data.tobytes() == np.where(d > 0.0, d, alpha * d).tobytes()
    want = np.zeros_like(d)
    want += g * np.where(d > 0.0, 1.0, alpha)
    assert x.grad.tobytes() == want.tobytes()


# --------------------------------------------------------------- FD oracles

FD_TOL = 1e-4   # acceptance line for per-op checks


def check(fn, *inputs, **kw):
    err = gradcheck(fn, list(inputs), **kw)
    assert err < FD_TOL, f"FD relative error {err:.3e}"
    return err


def test_fd_add_mul_broadcast():
    r = rng(10)
    check(lambda a, b: dc.sum_(dc.mul(dc.add(a, b), a)),
          r.normal(size=(3, 4)), r.normal(size=(4,)))


def test_fd_sub_neg():
    r = rng(11)
    check(lambda a, b: dc.sum_(dc.mul(dc.sub(a, b), dc.neg(b))),
          r.normal(size=(5,)), r.normal(size=(5,)))


def test_fd_matmul():
    r = rng(12)
    check(lambda a, b: dc.sum_(dc.matmul(a, b)),
          r.normal(size=(3, 4)), r.normal(size=(4, 2)))


def test_fd_matmul_batched():
    r = rng(13)
    check(lambda a, b: dc.sum_(dc.mul(dc.matmul(a, b), dc.matmul(a, b))),
          r.normal(size=(2, 3, 4)), r.normal(size=(4, 5)))


def test_fd_reciprocal_sqrt_pow():
    r = rng(14)
    x = 0.5 + r.random(size=(6,))
    check(lambda a: dc.sum_(dc.reciprocal(a)), x)


@pytest.mark.parametrize("op", [dc.exp, dc.tanh, dc.softplus, dc.sigmoid])
def test_fd_smooth_pointwise(op):
    x = rng(15).normal(size=(7,))
    check(lambda a: dc.sum_(op(a)), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_agrees_with_logaddexp(dtype):
    mags = np.array([0.0, 1e-30, 1.0, 20.0, 100.0, 1e4])
    x = np.concatenate([mags, -mags]).astype(dtype)
    y = dc.softplus(dc.Tensor(x)).data
    ref = np.logaddexp(0.0, x.astype(np.float64))
    assert y.dtype == dtype and np.isfinite(y).all()
    ulp = np.spacing(ref.astype(dtype)).astype(np.float64)
    assert (np.abs(y - ref) <= 2 * ulp).all(), (x, y, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilinear_tex_grad_matches_per_channel_bincounts(dtype):
    # taps on the last row and column (clamped) and past the border
    r = rng(21)
    u = np.concatenate([r.uniform(-0.1, 1.1, 300), [1.0, 0.99, 0.0, 1.0]])
    v = np.concatenate([r.uniform(-0.1, 1.1, 300), [1.0, 1.0, 0.99, 0.0]])
    taps = BilinearTaps(u.astype(dtype), v.astype(dtype), 5, 7, dtype)
    assert (taps.idx == 3 * 7 + 5).any()
    g = r.normal(size=(3, u.size)).astype(dtype)
    got = bilinear_tex_grad(g, taps, dtype)
    want = bilinear_tex_grad_per_channel(g, taps, dtype)
    assert got.dtype == want.dtype == dtype and got.shape == (3, 5, 7)
    assert got.tobytes() == want.tobytes()


def test_fd_log():
    x = 0.2 + rng(16).random(size=(6,))
    check(lambda a: dc.sum_(dc.log(a)), x)


def test_fd_relu_leaky_away_from_kink():
    x = rng(17).normal(size=(9,))
    x[np.abs(x) < 0.05] = 0.1
    check(lambda a: dc.sum_(dc.relu(a)), x)
    check(lambda a: dc.sum_(_leaky_unit(a)), x)


def test_fd_minmax_clamp_away_from_ties():
    r = rng(18)
    a = r.normal(size=(8,))
    b = a + np.where(r.random(8) > 0.5, 0.5, -0.5)
    check(lambda x, y: dc.sum_(dc.minimum(x, y)), a, b)
    check(lambda x, y: dc.sum_(dc.maximum(x, y)), a, b)
    c = r.normal(size=(8,)) * 2
    c[np.abs(np.abs(c) - 1.0) < 0.05] = 0.0
    check(lambda x: dc.sum_(dc.clamp(x, -1.0, 1.0)), c)


def test_fd_reductions_and_shape_ops():
    r = rng(19)
    x = r.normal(size=(3, 4, 2))
    check(lambda a: dc.sum_(dc.mul(dc.mean_(a, axis=1), dc.mean_(a, axis=1))), x)
    check(lambda a: dc.sum_(dc.mul(dc.sum_(a, axis=(0, 2)), 0.3)), x)
    check(lambda a: dc.sum_(dc.mul(dc.transpose(dc.reshape(a, (4, 6)), (1, 0)), 0.7)), x)
    check(lambda a: dc.sum_(dc.mul(dc.broadcast_to(dc.sum_(a, axis=0, keepdims=True), (3, 4, 2)), x)), x)


def test_fd_concat_stack_getitem():
    r = rng(20)
    a, b = r.normal(size=(2, 3)), r.normal(size=(4, 3))
    check(lambda x, y: dc.sum_(dc.mul(dc.concat([x, y], axis=0), 0.5)), a, b)
    check(lambda x, y: dc.sum_(dc.mul(dc.stack([x, dc.mul(y, 2.0)]), 1.5)),
          r.normal(size=(5,)), r.normal(size=(5,)))
    x = r.normal(size=(6, 3))
    idx = np.array([0, 2, 2, 5])
    check(lambda t: dc.sum_(dc.mul(dc.getitem(t, idx), dc.getitem(t, idx))), x)


@pytest.mark.parametrize("idx", [
    (slice(None), 1), 2, (Ellipsis, 0), (slice(1, 5, 2), slice(None, 2)),
    (None, 3), np.array([0, 2, 2, 5, 0]), (np.array([1, 1, 4]), 2)])
def test_getitem_backward_matches_add_at(idx):
    # basic indices take the slice-add path, array indices (which may
    # repeat) keep np.add.at; both must equal the add.at reference exactly
    r = rng(27)
    x = dc.Tensor(r.normal(size=(6, 3)), requires_grad=True)
    out = dc.getitem(x, idx)
    g = r.normal(size=out.shape)
    dc.backward(out, g)
    ref = np.zeros_like(x.data)
    np.add.at(ref, idx, g)
    npt.assert_array_equal(x.grad, ref)


def test_fd_conv2d():
    r = rng(21)
    check(lambda x, w, b: dc.sum_(dc.mul(dc.conv2d(x, w, b, stride=2, padding=1), 0.1)),
          r.normal(size=(2, 2, 5, 5)), r.normal(size=(3, 2, 3, 3)), r.normal(size=(3,)))


def test_fd_conv2d_1x1():
    r = rng(22)
    check(lambda x, w, b: dc.sum_(dc.mul(dc.conv2d(x, w, b), dc.conv2d(x, w, b))),
          r.normal(size=(1, 3, 4, 4)), r.normal(size=(2, 3, 1, 1)), r.normal(size=(2,)))


def test_fd_conv_transpose2d():
    r = rng(23)
    check(lambda x, w, b: dc.sum_(dc.mul(dc.conv_transpose2d(x, w, b), 0.1)),
          r.normal(size=(1, 2, 3, 3)), r.normal(size=(2, 3, 4, 4)), r.normal(size=(3,)))


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
@pytest.mark.parametrize("act", ["leaky", "sigmoid", None])
def test_fd_conv_layers_with_activation(act, stride, padding):
    r = rng(29)
    check(lambda x, w, b: dc.sum_(dc.mul(dc.conv2d(
              x, w, b, stride=stride, padding=padding, act=act), 0.3)),
          r.normal(size=(2, 2, 5, 5)), r.normal(size=(3, 2, 3, 3)), r.normal(size=(3,)))
    check(lambda x, w, b: dc.sum_(dc.mul(dc.conv_transpose2d(
              x, w, b, stride=stride, padding=padding, act=act), 0.3)),
          r.normal(size=(1, 2, 3, 3)), r.normal(size=(2, 3, 4, 4)), r.normal(size=(3,)))


@pytest.mark.parametrize("act", ["leaky", "sigmoid", None])
def test_fd_linear_with_activation(act):
    r = rng(32)
    check(lambda x, w, b: dc.sum_(dc.mul(dc.linear(x, w, b, act=act), 0.3)),
          r.normal(size=(4, 3)), r.normal(size=(3, 2)), r.normal(size=(2,)))


def test_fd_texture_sample_tex_and_uv():
    r = rng(24)
    tex = r.normal(size=(2, 5, 5))
    uv = 0.15 + 0.7 * r.random(size=(6, 2))   # interior, away from clamp kinks
    # keep sample points off texel-grid lines where bilinear has kinks
    uv = np.round(uv * 20) / 20 + 0.013
    check(lambda t, c: dc.sum_(dc.mul(dc.texture_sample(t, c), 0.7)), tex, uv)


def test_fd_scatter_add_window():
    r = rng(25)
    vals = r.normal(size=(2, 3, 2, 2))
    oy = np.array([[0, 1, 2], [1, 0, 3]])
    ox = np.array([[0, 2, 1], [3, 0, 2]])
    check(lambda v: dc.sum_(dc.mul(scatter_add_window(v, oy, ox, 5, 5),
                                   scatter_add_window(v, oy, ox, 5, 5))), vals)


def test_fd_lbs_apply():
    r = rng(26)
    W = r.random(size=(5, 3))
    W /= W.sum(axis=1, keepdims=True)
    T = r.normal(size=(3, 3, 4))
    x = r.normal(size=(5, 3))
    check(lambda v: dc.sum_(dc.mul(body.lbs_apply(v, T, W), 0.3)), x)


def test_fd_upsample_bilinear():
    r = rng(27)
    check(lambda x: dc.sum_(dc.mul(dc.upsample2d(x, 4), 0.2)), r.normal(size=(2, 3, 3)))


def test_fd_linear_chain():
    r = rng(28)
    check(lambda x, w, b: dc.sum_(dc.tanh(dc.linear(x, w, b))),
          r.normal(size=(4, 3)), r.normal(size=(3, 2)), r.normal(size=(2,)))


# ----------------------------------------------------------------- contracts

def test_backward_accumulates_linearly():
    # d(a*L1 + b*L2)/dx == a*dL1/dx + b*dL2/dx
    r = rng(30)
    xv = r.normal(size=(5,))

    def grad_of(fn):
        x = dc.Tensor(xv.copy(), requires_grad=True)
        dc.backward(fn(x))
        return x.grad

    g1 = grad_of(lambda x: dc.sum_(dc.mul(x, x)))
    g2 = grad_of(lambda x: dc.sum_(dc.tanh(x)))
    g = grad_of(lambda x: dc.add(dc.mul(dc.sum_(dc.mul(x, x)), 2.0),
                                 dc.mul(dc.sum_(dc.tanh(x)), 3.0)))
    npt.assert_allclose(g, 2.0 * g1 + 3.0 * g2, rtol=1e-12)


def test_tape_replay_bit_identical():
    r = rng(31)
    xv = r.normal(size=(3, 8, 8))

    def run():
        x = dc.Tensor(xv.copy(), requires_grad=True)
        w = dc.Tensor(np.ones((2, 3, 3, 3)) * 0.1, requires_grad=True)
        y = dc.sum_(dc.sigmoid(dc.conv2d(dc.reshape(x, (1, 3, 8, 8)), w, padding=1)))
        dc.backward(y)
        return y.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for u, v in zip(a, b):
        npt.assert_array_equal(u, v)


def test_no_grad_blocks_graph():
    x = dc.Tensor(np.ones(3), requires_grad=True)
    with dc.no_grad():
        y = dc.mul(x, 2.0)
    assert not y.requires_grad and y._operands == ()


def test_float32_graph_stays_float32():
    x = dc.Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    y = dc.sum_(dc.mul(dc.add(x, 0.5), 2.0))
    assert y.dtype == np.float32
    dc.backward(y)
    assert x.grad.dtype == np.float32


def test_nan_checks_name_the_op_and_restore_the_previous_flag():
    zero = dc.Tensor(np.zeros(2))
    with np.errstate(divide="ignore"):
        assert np.isneginf(dc.log(zero).data).all()     # off by default
        with dc.nan_checks():
            with pytest.raises(FloatingPointError, match="log"):
                dc.log(zero)
            with pytest.raises(RuntimeError):
                with dc.nan_checks(False):
                    dc.log(zero)
                    raise RuntimeError
            with pytest.raises(FloatingPointError, match="log"):
                dc.log(zero)                            # back on
        dc.log(zero)                                    # back off


_LAYERS = {
    "conv2d": lambda x, w, b: dc.conv2d(x, w, b, padding=1),
    "conv_transpose2d": lambda x, w, b: dc.conv_transpose2d(x, w, b),
    "linear": lambda x, w, b: dc.linear(x, w, b),
    "matmul": lambda x, w, b: dc.matmul(x, w),
}
_SHAPES = {"conv2d": ((1, 2, 4, 4), (3, 2, 3, 3), (3,)),
           "conv_transpose2d": ((1, 2, 3, 3), (2, 3, 4, 4), (3,)),
           "linear": ((4, 3), (3, 2), (2,)),
           "matmul": ((4, 3), (3, 2), None)}


@pytest.mark.parametrize("op", list(_LAYERS))
def test_frozen_weight_gets_no_gradient(op):
    r = rng(40)
    xs, ws, bs = _SHAPES[op]
    x = dc.Tensor(r.normal(size=xs), requires_grad=True)
    w = dc.Tensor(r.normal(size=ws))
    b = None if bs is None else dc.Tensor(r.normal(size=bs), requires_grad=True)
    y = _LAYERS[op](x, w, b)
    needs = (True, False, True) if b is not None else (True, False)
    assert y._needs == needs
    grads = y._backward(np.ones_like(y.data), y._needs)
    assert grads[1] is None
    assert all(g is not None for g, need in zip(grads, needs) if need)
    dc.backward(dc.sum_(y))
    assert w.grad is None and x.grad is not None
    assert b is None or b.grad is not None


def test_operand_passed_twice_gets_both_gradients_in_operand_order():
    x = dc.Tensor(np.array([3.0]), requires_grad=True)
    dc.backward(dc.sum_(dc.mul(x, x)))
    npt.assert_array_equal(x.grad, [6.0])
    # (1 + 1e-16) - 1 is 0 and (1 - 1) + 1e-16 is not: the first
    # operand's gradient must be added first
    x.grad = np.array([1.0])
    y = make_node(x.data.copy(), (x, 2.0, x),
                  lambda g, needs: (1e-16 * g, None, -g))
    assert y._needs == (True, False, True)
    dc.backward(y, np.ones(1))
    npt.assert_array_equal(x.grad, [0.0])


def _shared_intermediate(x):
    # h feeds two consumers, so its gradient is the sum of two routes;
    # x gets one gradient per pass, so two passes add exactly twice it
    h = dc.mul(x, 3.0)
    return dc.sum_(dc.add(dc.mul(h, 2.0), dc.exp(h)))


@pytest.mark.parametrize("graph", [
    lambda x: dc.sum_(dc.mul(dc.mul(x, 3.0), 1.0)),
    _shared_intermediate,
], ids=["chain", "shared-intermediate"])
def test_second_backward_adds_one_more_leaf_gradient(graph):
    # the tape frees each intermediate gradient once routed, so a second
    # pass over the same graph adds exactly one more copy of the first
    x = dc.Tensor(np.array([0.5, -1.25, 2.0]), requires_grad=True)
    loss = graph(x)
    dc.backward(loss)
    once = x.grad.copy()
    dc.backward(loss)
    assert x.grad.tobytes() == (once + once).tobytes()


def test_first_gradient_is_rounded_once_to_the_leaf_dtype():
    # a float64 gradient into a float32 leaf (laid out transposed): the
    # leaf keeps 0 + g rounded once to float32, laid out as its data; a
    # lone -0.0 gradient leaves +0.0 bytes, as `+=` into zeros did
    g = np.array([[1 + 2.0 ** -24, 1 + 2.0 ** -24 + 2.0 ** -50, -0.0],
                  [0.1, -1e-46, 3.0]])
    x = dc.Tensor(np.ones((3, 2), np.float32).T, requires_grad=True)
    zero = dc.Tensor(np.ones(3, np.float32), requires_grad=True)
    y = make_node(np.ones(1), (x, zero),
                  lambda gy, needs: (g, np.full(3, -0.0)), "probe")
    dc.backward(y)
    assert x.grad.dtype == np.float32 and x.grad.strides == x.data.strides
    assert x.grad.tobytes() == (g + 0.0).astype(np.float32).tobytes()
    assert zero.grad.tobytes() == np.zeros(3, np.float32).tobytes()


def test_only_the_tape_adds_gradients():
    # ops return their operands' gradients; tensor.backward alone adds
    # them, and no op reads requires_grad to decide what to compute
    src = Path(dc.__file__).parents[1]
    adders = sorted(str(path.relative_to(src)) for path in src.rglob("*.py")
                    if ".accumulate_grad(" in path.read_text())
    assert adders == [str(Path("diffcore", "tensor.py"))]
    for path in ("diffcore/ops.py", "diffcore/geom.py", "renderer/raster.py"):
        assert "requires_grad" not in (src / path).read_text(), path


def test_only_the_tape_and_the_optimizer_clear_gradients():
    # the tape frees the gradients it routes and Adam.step consumes the
    # leaves', so no caller clears one and only diffcore assigns .grad
    src = Path(dc.__file__).parents[1]
    for path in src.rglob("*.py"):
        text = path.read_text()
        assert "zero_grad(" not in text.replace("def zero_grad(", ""), path
        if path.parent.name != "diffcore":
            assert not re.search(r"\.grad\s*=(?!=)", text), path
