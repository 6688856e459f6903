"""The channel-first convolutions against the pixel-major kernels in
conv_oracle.py on every conv shape of the default model: the window copy
and its adjoint bit for bit, the convolutions and bias gradients to
rounding (their matrix products and sums run in another order); and
golden digests of freshly initialised parameters."""

import hashlib

import numpy as np
import numpy.testing as npt
import pytest

import dsaa.synthdata as sd
from dsaa import diffcore as dc
from dsaa.avatar import AvatarModel
from dsaa.diffcore.ops import _col2im, _im2col
from dsaa.disentangle import StatisticsNet
from conv_oracle import add_windows, windows
from conv_oracle import conv2d as oracle_conv2d
from conv_oracle import conv_transpose2d as oracle_conv_transpose2d

# (block/layer, x shape, w shape, stride, padding) of every conv2d call in
# one default-config model call, plus the two largest and one 1x1 at
# batch 8
CONV2D = [
    ("enc/c0", (1, 3, 32, 32), (16, 3, 3, 3), 2, 1),
    ("enc/c1", (1, 16, 16, 16), (32, 16, 3, 3), 2, 1),
    ("enc/c2", (1, 32, 8, 8), (64, 32, 3, 3), 2, 1),
    ("enc/c3", (1, 64, 4, 4), (64, 64, 3, 3), 2, 1),
    ("dec/trunk", (1, 48, 32, 32), (32, 48, 3, 3), 1, 1),
    ("dec/geo", (1, 32, 32, 32), (3, 32, 1, 1), 1, 0),
    ("dec/tex1", (1, 19, 64, 64), (16, 19, 3, 3), 1, 1),
    ("dec/tex2", (1, 16, 64, 64), (3, 16, 1, 1), 1, 0),
    ("shadow/c0", (1, 1, 16, 16), (8, 1, 3, 3), 1, 1),
    ("shadow/down", (1, 8, 16, 16), (16, 8, 3, 3), 2, 1),
    ("shadow/c3", (1, 16, 16, 16), (8, 16, 3, 3), 1, 1),
    ("shadow/out", (1, 8, 16, 16), (1, 8, 1, 1), 1, 0),
    ("dec/trunk@8", (8, 48, 32, 32), (32, 48, 3, 3), 1, 1),
    ("dec/geo@8", (8, 32, 32, 32), (3, 32, 1, 1), 1, 0),
]
CONV_T = [
    ("dec/up1", (1, 16, 8, 8), (16, 32, 4, 4), 2, 1),
    ("dec/up2", (1, 32, 16, 16), (32, 32, 4, 4), 2, 1),
    ("dec/texup", (1, 32, 32, 32), (32, 16, 4, 4), 2, 1),
    ("shadow/up", (1, 16, 8, 8), (16, 8, 4, 4), 2, 1),
    ("dec/texup@8", (8, 32, 32, 32), (32, 16, 4, 4), 2, 1),
]


# a product's worst elementwise distance from the oracle, relative to the
# oracle's largest magnitude
PRODUCT_TOL = {np.float32: 1e-5, np.float64: 1e-13}


def _window_case(case, transpose):
    """(padded input shape, kh, kw, stride, Ho, Wo) of the window matrix a
    case builds: the padded input of a conv2d, or the padded output
    gradient of a conv_transpose2d (windows over its input pixels)."""
    _, (N, Ci, H, W), ws, s, p = case
    kh, kw = ws[2:]
    if transpose:
        return (N, ws[1], (H - 1) * s + kh, (W - 1) * s + kw), kh, kw, s, H, W
    return ((N, Ci, H + 2 * p, W + 2 * p), kh, kw, s,
            (H + 2 * p - kh) // s + 1, (W + 2 * p - kw) // s + 1)


WINDOW_CASES = [(c, False) for c in CONV2D] + [(c, True) for c in CONV_T]
WINDOW_IDS = [c[0] for c, _ in WINDOW_CASES]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case,transpose", WINDOW_CASES, ids=WINDOW_IDS)
def test_im2col_is_oracle_windows_transposed(case, transpose, dtype):
    shape, kh, kw, s, Ho, Wo = _window_case(case, transpose)
    xp = np.random.default_rng(sum(map(ord, case[0]))).normal(size=shape).astype(dtype)
    got = _im2col(xp, kh, kw, s, Ho, Wo)
    assert got.dtype == dtype
    npt.assert_array_equal(got, windows(xp, kh, kw, s, Ho, Wo).T)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case,transpose", WINDOW_CASES, ids=WINDOW_IDS)
def test_col2im_is_oracle_add_loop(case, transpose, dtype):
    shape, kh, kw, s, Ho, Wo = _window_case(case, transpose)
    r = np.random.default_rng(sum(map(ord, case[0])))
    rows = r.normal(size=(shape[0] * Ho * Wo, shape[1] * kh * kw)).astype(dtype)
    got = _col2im(np.ascontiguousarray(rows.T), shape, kh, kw, s, Ho, Wo)
    assert got.dtype == dtype
    npt.assert_array_equal(got, add_windows(rows, shape, kh, kw, s, Ho, Wo))


def _run(op, x, w, b, g, stride, padding):
    """Forward plus x, w and b gradients of op under upstream gradient g."""
    xt, wt, bt = (dc.Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    out = op(xt, wt, bt, stride=stride, padding=padding)
    dc.backward(out, g)
    return out.data, xt.grad, wt.grad, bt.grad


def _check(op, oracle, case, dtype, co_axis):
    name, xs, ws, s, p = case
    r = np.random.default_rng(sum(map(ord, name)))
    x = r.normal(size=xs).astype(dtype)
    w = r.normal(size=ws).astype(dtype)
    b = r.normal(size=ws[co_axis]).astype(dtype)
    ref = oracle(dc.Tensor(x), dc.Tensor(w), dc.Tensor(b), stride=s, padding=p)
    g = r.normal(size=ref.shape).astype(dtype)
    got = _run(op, x, w, b, g, s, p)
    want = _run(oracle, x, w, b, g, s, p)
    for what, u, v in zip(("forward", "dx", "dw", "db"), got, want):
        assert u.dtype == v.dtype == dtype, what
        assert u.shape == v.shape, what
        npt.assert_array_less(np.abs(u - v), PRODUCT_TOL[dtype] * np.abs(v).max(),
                              err_msg=f"{name} {what}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", CONV2D, ids=[c[0] for c in CONV2D])
def test_conv2d_matches_oracle(case, dtype):
    _check(dc.conv2d, oracle_conv2d, case, dtype, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", CONV_T, ids=[c[0] for c in CONV_T])
def test_conv_transpose2d_matches_oracle(case, dtype):
    _check(dc.conv_transpose2d, oracle_conv_transpose2d, case, dtype, 1)


# ------------------------------------------------------ initial parameters

def _container_sha256(store, path) -> str:
    dc.save_arrays(path, store.state_arrays())
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_model_init_digest(tmp_path):
    fig = sd.build_figure()
    model = AvatarModel(fig.template, fig.skeleton, seed=0)
    digest = _container_sha256(model.store, tmp_path / "m.dsaa1")
    assert digest == \
        "d484696853848341b0a7369c6a376403834ea95dc85df60a8f35abd21c4284cc"


def test_statistics_net_init_digest(tmp_path):
    store = dc.ParamStore()
    StatisticsNet(store, "critic", 7, 5, width=16, rng=np.random.default_rng(3))
    digest = _container_sha256(store, tmp_path / "s.dsaa1")
    assert digest == \
        "8273e8b589a56f0846f53e8da6fb4671bfa29ce65aee5c79a5c72d6791dddcb6"
