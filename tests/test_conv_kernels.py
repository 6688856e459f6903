"""The channel-first convolutions against the pixel-major kernels in
conv_oracle.py on every conv shape of the default model and on odd sizes
whose last window row lies in the padding: the padded window copy and
its adjoint bit for bit, on contiguous arrays, transposed crop views
and broadcast views, over window grids both narrow and wide; the
convolutions and bias gradients to rounding (their matrix products and
sums run in another order); each layer's fused activation, and dc.add's,
against the op followed by the oracle activation, byte for byte; and
golden digests of freshly initialised parameters."""

import hashlib
import re

import numpy as np
import numpy.testing as npt
import pytest

import dsaa.synthdata as sd
from dsaa import diffcore as dc
from dsaa.avatar import AvatarModel
from dsaa.diffcore.ops import _col2im, _im2col
from dsaa.disentangle import StatisticsNet
from conv_oracle import add_windows, leaky_relu, windows
from conv_oracle import conv2d as oracle_conv2d
from conv_oracle import conv_transpose2d as oracle_conv_transpose2d

# (block/layer, x shape, w shape, stride, padding) of every conv2d call in
# one default-config model call (the trunk runs over the latent's 12x12
# tile and over the embeddings at geo_res, tex1 over the upsample and
# over the view tiled on a 3x3 grid for its bias map; "dec/trunk" and
# "dec/tex1" are the single convs over both that the tests' decoder and
# texture references run), plus the two largest and one 1x1 at batch 8,
# and odd sizes at stride 2 where the last window's bottom row of taps
# lies wholly in the padding (at 1x1, all taps but the centre row and
# column do)
CONV2D = [
    ("enc/c0", (1, 3, 32, 32), (16, 3, 3, 3), 2, 1),
    ("enc/c1", (1, 16, 16, 16), (32, 16, 3, 3), 2, 1),
    ("enc/c2", (1, 32, 8, 8), (64, 32, 3, 3), 2, 1),
    ("enc/c3", (1, 64, 4, 4), (64, 64, 3, 3), 2, 1),
    ("dec/trunk", (1, 48, 32, 32), (32, 48, 3, 3), 1, 1),
    ("dec/trunk/z", (1, 32, 12, 12), (32, 32, 3, 3), 1, 1),
    ("dec/trunk/e", (1, 16, 32, 32), (32, 16, 3, 3), 1, 1),
    ("dec/geo", (1, 32, 32, 32), (3, 32, 1, 1), 1, 0),
    ("dec/tex1", (1, 19, 64, 64), (16, 19, 3, 3), 1, 1),
    ("dec/tex1/up", (1, 16, 64, 64), (16, 16, 3, 3), 1, 1),
    ("dec/tex1/view", (1, 3, 3, 3), (16, 3, 3, 3), 1, 1),
    ("dec/tex2", (1, 16, 64, 64), (3, 16, 1, 1), 1, 0),
    ("shadow/c0", (1, 1, 16, 16), (8, 1, 3, 3), 1, 1),
    ("shadow/down", (1, 8, 16, 16), (16, 8, 3, 3), 2, 1),
    ("shadow/c3", (1, 16, 16, 16), (8, 16, 3, 3), 1, 1),
    ("shadow/out", (1, 8, 16, 16), (1, 8, 1, 1), 1, 0),
    ("dec/trunk@8", (8, 48, 32, 32), (32, 48, 3, 3), 1, 1),
    ("dec/geo@8", (8, 32, 32, 32), (3, 32, 1, 1), 1, 0),
    ("odd/5x7", (2, 3, 5, 7), (4, 3, 3, 3), 2, 1),
    ("odd/3x1", (1, 2, 3, 1), (3, 2, 3, 3), 2, 1),
    ("odd/1x1", (1, 2, 1, 1), (3, 2, 3, 3), 2, 1),
]
# the same for conv_transpose2d ("dec/up1" and "dec/up2" on the whole
# (geo_res/4)^2 bottleneck are what the tests' decoder reference runs)
CONV_T = [
    ("dec/up1", (1, 16, 8, 8), (16, 32, 4, 4), 2, 1),
    ("dec/up2", (1, 32, 16, 16), (32, 32, 4, 4), 2, 1),
    ("dec/up1@tile", (1, 16, 3, 3), (16, 32, 4, 4), 2, 1),
    ("dec/up2@tile", (1, 32, 6, 6), (32, 32, 4, 4), 2, 1),
    ("dec/texup", (1, 32, 32, 32), (32, 16, 4, 4), 2, 1),
    ("shadow/up", (1, 16, 8, 8), (16, 8, 4, 4), 2, 1),
    ("dec/texup@8", (8, 32, 32, 32), (32, 16, 4, 4), 2, 1),
    ("odd/t5x3", (2, 3, 5, 3), (3, 2, 4, 4), 2, 1),
]


# a product's worst elementwise distance from the oracle, relative to the
# oracle's largest magnitude
PRODUCT_TOL = {np.float32: 1e-5, np.float64: 1e-13}


def _window_case(case, transpose):
    """(unpadded input shape, kh, kw, stride, padding, Ho, Wo) of the
    window matrix a case builds: over the input of a conv2d, or over the
    output gradient of a conv_transpose2d (windows over its input
    pixels)."""
    _, (N, Ci, H, W), ws, s, p = case
    kh, kw = ws[2:]
    if transpose:
        return ((N, ws[1], (H - 1) * s + kh - 2 * p, (W - 1) * s + kw - 2 * p),
                kh, kw, s, p, H, W)
    return ((N, Ci, H, W), kh, kw, s, p,
            (H + 2 * p - kh) // s + 1, (W + 2 * p - kw) // s + 1)


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


WINDOW_CASES = [(c, False) for c in CONV2D] + [(c, True) for c in CONV_T]
WINDOW_IDS = [c[0] for c, _ in WINDOW_CASES]
# each dtype with the helpers' array operand laid out as made, as a
# transposed crop view of a larger array, or with its last axis broadcast
# (stride 0)
DTYPE_LAYOUTS = [pytest.param(dtype, layout, id=np.dtype(dtype).name + suffix)
                 for layout, suffix in [("contiguous", ""), ("crop", "-crop"),
                                        ("broadcast", "-broadcast")]
                 for dtype in (np.float32, np.float64)]


def _as_layout(a, layout):
    """a laid out as `layout` says: a itself, a's values seen through a
    transposed crop of a larger NaN-filled array, or a[..., :1]
    broadcast to a's shape."""
    if layout == "broadcast":
        return np.broadcast_to(a[..., :1], a.shape)
    if layout == "crop":
        big = np.full((a.shape[1] + 2, a.shape[0] + 3, *a.shape[2:]), np.nan, a.dtype)
        big[1:-1, 2:-1] = a.swapaxes(0, 1)
        return big[1:-1, 2:-1].swapaxes(0, 1)
    return a


@pytest.mark.parametrize("dtype,layout", DTYPE_LAYOUTS)
@pytest.mark.parametrize("case,transpose", WINDOW_CASES, ids=WINDOW_IDS)
def test_im2col_is_oracle_windows_transposed(case, transpose, dtype, layout):
    shape, kh, kw, s, p, Ho, Wo = _window_case(case, transpose)
    x = np.random.default_rng(sum(map(ord, case[0]))).normal(size=shape).astype(dtype)
    x = _as_layout(x, layout)
    got = _im2col(x, kh, kw, s, p, Ho, Wo)
    assert got.dtype == dtype
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    _same_bytes(got, windows(xp, kh, kw, s, Ho, Wo).T)


@pytest.mark.parametrize("dtype,layout", DTYPE_LAYOUTS)
@pytest.mark.parametrize("case,transpose", WINDOW_CASES, ids=WINDOW_IDS)
def test_col2im_is_oracle_add_loop(case, transpose, dtype, layout):
    shape, kh, kw, s, p, Ho, Wo = _window_case(case, transpose)
    N, C, H, W = shape
    r = np.random.default_rng(sum(map(ord, case[0])))
    rows = r.normal(size=(N * Ho * Wo, C * kh * kw)).astype(dtype)
    col = _as_layout(np.ascontiguousarray(rows.T), layout)
    got = _col2im(col, shape, kh, kw, s, p, Ho, Wo)
    assert got.dtype == dtype
    padded = (N, C, H + 2 * p, W + 2 * p)
    want = add_windows(col.T, padded, kh, kw, s, Ho, Wo)[:, :, p:p + H, p:p + W]
    _same_bytes(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_cases_reach_both_col2im_paths(dtype):
    # test_col2im_is_oracle_add_loop runs window grids as narrow as the
    # default model's bottleneck (Wo <= 8, where each tap adds short rows
    # and the padding drops a large share of them) and as wide as its
    # full-resolution layers (Wo >= 12), in this dtype
    widths = [_window_case(case, transpose)[-1] for case, transpose in WINDOW_CASES]
    assert min(widths) <= 8 and max(widths) >= 12
    assert dtype in [param.values[0] for param in DTYPE_LAYOUTS]


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


# -------------------------------------------------------- fused activation

# (layer, x shape, w shape, keyword arguments, zeroed part of x), each
# with 6 outputs; the zeros make a run of pre-activations equal to the
# bias, which holds signed zeros, subnormals and the smallest normals, at
# and around the kink
FUSED = [
    ("conv2d", (2, 3, 5, 7), (6, 3, 3, 3), {"padding": 1}, np.s_[..., :3]),
    ("conv2d", (2, 3, 5, 7), (6, 3, 3, 3), {"stride": 2, "padding": 1},
     np.s_[..., :3]),
    ("conv2d", (2, 3, 5, 7), (6, 3, 1, 1), {}, np.s_[..., :3]),
    ("conv_transpose2d", (2, 3, 3, 5), (3, 6, 4, 4), {}, np.s_[..., :2]),
    ("linear", (5, 7), (7, 6), {}, np.s_[:2]),
]
ACTS = ["leaky", "sigmoid", None]


def _edge_bias(dtype):
    fi = np.finfo(dtype)
    sub, tiny = fi.smallest_subnormal, fi.tiny
    return np.array([0.0, -0.0, sub, -sub, tiny, -tiny], dtype=dtype)


def _oracle_act(t, act):
    return {"leaky": leaky_relu, "sigmoid": dc.sigmoid, None: lambda u: u}[act](t)


def _layer_run(layer, x, w, b, g, kw, act, fused):
    """Output and x, w, b gradients of the layer under upstream gradient
    g, its activation fused or applied after it by the oracle."""
    xt, wt, bt = (dc.Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    op = getattr(dc, layer)
    if fused:
        out = op(xt, wt, bt, act=act, **kw)
    else:
        out = _oracle_act(op(xt, wt, bt, act=None, **kw), act)
    dc.backward(out, g)
    return out.data, xt.grad, wt.grad, bt.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("act", ACTS)
@pytest.mark.parametrize("case", FUSED, ids=[f"{c[0]}{i}" for i, c in enumerate(FUSED)])
def test_fused_activation_matches_layer_then_oracle(case, act, dtype):
    layer, xs, ws, kw, zeros = case
    r = np.random.default_rng(5)
    x = r.normal(size=xs).astype(dtype)
    x[zeros] = 0.0
    w = r.normal(size=ws).astype(dtype)
    b = _edge_bias(dtype)
    ref = getattr(dc, layer)(dc.Tensor(x), dc.Tensor(w), dc.Tensor(b), **kw)
    assert np.isin(b, ref.data).all()
    g = r.normal(size=ref.shape).astype(dtype)
    got = _layer_run(layer, x, w, b, g, kw, act, fused=True)
    want = _layer_run(layer, x, w, b, g, kw, act, fused=False)
    for what, u, v in zip(("forward", "dx", "dw", "db"), got, want):
        assert u.dtype == v.dtype == dtype, what
        assert u.shape == v.shape, what
        assert u.tobytes() == v.tobytes(), f"{layer} {act} {what}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_fused_leaky_matches_add_then_oracle(dtype):
    # tex1's shared conv plus a view's bias map, leaky in the adding node
    r = np.random.default_rng(6)
    a = r.normal(size=(1, 6, 4, 5)).astype(dtype)
    b = r.normal(size=(1, 6, 4, 5)).astype(dtype)
    a[..., 0, :] = _edge_bias(dtype)[:, None]
    b[..., 0, :] = -0.0                    # keeps -0.0 in a + b
    g = r.normal(size=a.shape).astype(dtype)
    runs = []
    for fused in (True, False):
        at, bt = (dc.Tensor(u.copy(), requires_grad=True) for u in (a, b))
        out = dc.add(at, bt, act="leaky") if fused else leaky_relu(dc.add(at, bt))
        dc.backward(out, g)
        runs.append((out.data, at.grad, bt.grad))
    for what, u, v in zip(("forward", "da", "db"), *runs):
        assert u.dtype == v.dtype == dtype, what
        assert u.tobytes() == v.tobytes(), what


@pytest.mark.parametrize("layer,w_shape", [("conv2d", (4, 2, 3, 3)),
                                            ("conv_transpose2d", (2, 4, 4, 4))])
def test_mismatched_channels_are_refused(layer, w_shape):
    x = dc.Tensor(np.ones((1, 3, 5, 5)))
    want = f"{layer}: input (1, 3, 5, 5) has 3 channels, weight {w_shape} takes 2"
    with pytest.raises(ValueError, match=re.escape(want)):
        getattr(dc, layer)(x, dc.Tensor(np.ones(w_shape)))


def test_unknown_activation_is_refused():
    x = dc.Tensor(np.ones((1, 2)))
    with pytest.raises(ValueError, match="unknown activation 'relu'"):
        dc.linear(x, dc.Tensor(np.ones((2, 2))), act="relu")


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
