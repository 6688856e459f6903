"""Signal tiling, influence masks from skinning weights, localized
projection (exact locality), and heatmaps."""

import numpy as np
import numpy.testing as npt
import pytest

from dsaa import body, conditioning as cond, diffcore as dc
from dsaa.avatar import AvatarConfig

TAU, HEAD = AvatarConfig.tau, AvatarConfig.head_joint


# ------------------------------------------------------------------ helpers

def strip_rig(ncol=13, grid=16):
    """Two-row strip driven by a 3-joint chain (root, mid, head) along +x.

    Hat-function weights peak at the joint stations x = 0, 1, 2; with 13
    columns the station x=1.0 is sampled exactly, so every joint owns at
    least one fully bound vertex.
    """
    xs = np.linspace(0.0, 2.0, ncol)
    verts, uvs = [], []
    for row, y in enumerate((0.0, 0.2)):
        for x in xs:
            verts.append([x, y, 0.0])
            uvs.append([0.05 + 0.9 * x / 2.0, 0.35 + 0.3 * row])
    verts = np.asarray(verts)
    uvs = np.asarray(uvs)
    faces = []
    for j in range(ncol - 1):
        a, b, c, d = j, j + 1, ncol + j + 1, ncol + j
        faces.append([a, b, c])
        faces.append([a, c, d])
    faces = np.asarray(faces)
    stations = np.array([0.0, 1.0, 2.0])
    w = np.maximum(0.0, 1.0 - np.abs(verts[:, :1] - stations[None, :]))
    w /= w.sum(axis=1, keepdims=True)
    tpl = body.TemplateMesh(verts, faces, uvs, w)
    eye = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
    rest_t = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
    skel = body.Skeleton(("root", "mid", "head"), np.array([-1, 0, 1]), eye, rest_t)
    return tpl, skel


def tiny_projector(masks, seed=0, hidden=6, out=4):
    store = dc.ParamStore()
    rng = np.random.default_rng(seed)
    proj = cond.LocalizedProjector(store, "p", masks.data, hidden=hidden,
                                   out_channels=out, rng=rng, dtype=np.float64)
    return store, proj


# ------------------------------------------------------------------- tile2d

def test_tile2d_constant_fill():
    out = cond.tile2d(dc.Tensor(np.array([2.0])), 2, 2)
    npt.assert_array_equal(out.data, np.full((1, 2, 2), 2.0))
    npt.assert_array_equal(cond.tile2d(dc.Tensor(np.zeros(5)), 3, 4).data,
                           np.zeros((5, 3, 4)))


def test_tile2d_mean_recovers_vector():
    # short-mantissa values keep every partial sum of the reduction exact
    x = np.round(np.random.default_rng(0).normal(size=7) * 2 ** 20) / 2 ** 20
    for h, w in [(2, 2), (32, 32)]:
        npt.assert_array_equal(
            cond.tile2d(dc.Tensor(x), h, w).data.mean(axis=(1, 2)), x)


def test_tile2d_tensor_gradient():
    x = dc.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    out = cond.tile2d(x, 4, 8)
    dc.backward(dc.sum_(out))
    npt.assert_array_equal(x.grad, np.full(2, 32.0))


# ---------------------------------------------------------- driving signal

def test_driving_signal_validation():
    v = np.array([0.0, 0.0, 1.0])
    cond.DrivingSignal(np.zeros(9), np.zeros(4), v)
    with pytest.raises(ValueError):
        cond.DrivingSignal(np.zeros(9), np.zeros(4), v * 1.1)
    with pytest.raises(ValueError):
        cond.DrivingSignal(np.array([np.nan]), np.zeros(4), v)


# -------------------------------------------------------------- build_masks

def atlas16(tpl):
    return body.build_atlas(tpl.uvs, tpl.faces, 16, 16)


def test_masks_zero_threshold_covers_valid_atlas():
    tpl, skel = strip_rig()
    atlas = atlas16(tpl)
    m = cond.build_masks(tpl, skel, atlas, tau=0.0, n_face=2, head_joint=HEAD)
    assert m.data.shape == (3 * 3 + 2, 16, 16)
    assert (m.data[:, atlas.valid] == 1).all()


def test_masks_fully_bound_vertex_active():
    tpl, skel = strip_rig()
    m = cond.build_masks(tpl, skel, atlas16(tpl), tau=1.0, n_face=1,
                         head_joint=HEAD)
    for j, station in enumerate((0.0, 1.0, 2.0)):
        vid = int(np.argmax((tpl.verts[:, 0] == station) & (tpl.verts[:, 1] == 0.0)))
        u, v = tpl.uvs[vid]
        ti, tj = int(v * 16), int(u * 16)
        assert m.data[3 * j: 3 * j + 3, ti, tj].all(), (j, ti, tj)


def test_masks_empty_channel_raises():
    tpl, skel = strip_rig(ncol=12)   # mid joint tops out below 0.95
    with pytest.raises(ValueError, match="mid"):
        cond.build_masks(tpl, skel, atlas16(tpl), tau=0.95, n_face=4,
                         head_joint=HEAD)


def test_masks_face_channels_equal_head_region():
    tpl, skel = strip_rig()
    m = cond.build_masks(tpl, skel, atlas16(tpl), tau=TAU, n_face=4,
                         head_joint=HEAD)
    head = m.data[6:9]
    for k in range(4):
        npt.assert_array_equal(m.data[9 + k], head[0])
    assert [n for n in m.names[:3]] == ["pose:root:rx", "pose:root:ry", "pose:root:rz"]
    assert m.names[-1] == "face:3"


def test_masks_rebuild_bit_exact_and_scalar_channels_match():
    tpl, skel = strip_rig()
    a = cond.build_masks(tpl, skel, atlas16(tpl), tau=TAU, n_face=4,
                         head_joint=HEAD)
    b = cond.build_masks(tpl, skel, atlas16(tpl), tau=TAU, n_face=4,
                         head_joint=HEAD)
    npt.assert_array_equal(a.data, b.data)
    assert a.names == b.names
    npt.assert_array_equal(a.data[0], a.data[1])   # scalars of one joint share a mask


# -------------------------------------------------------- localized encode

def random_masks(rng, n=5, h=8, w=8):
    data = (rng.random((n, h, w)) < 0.3).astype(np.uint8)
    data[np.arange(n), rng.integers(0, h, n), rng.integers(0, w, n)] = 1
    return cond.InfluenceMask(data, tuple(f"pose:j:{k}" for k in range(n)))


def test_encode_zero_masks_signal_independent():
    masks = cond.InfluenceMask(np.zeros((3, 4, 4), dtype=np.uint8), ("a", "b", "c"))
    _, proj = tiny_projector(masks)
    e1 = proj(np.array([[1.0, 2.0, 3.0]]))
    e2 = proj(np.array([[-5.0, 0.0, 9.0]]))
    npt.assert_array_equal(e1.data, e2.data)
    npt.assert_array_equal(e1.data, np.zeros_like(e1.data))


def test_encode_outside_union_is_zero():
    rng = np.random.default_rng(3)
    masks = random_masks(rng)
    _, proj = tiny_projector(masks, seed=4)
    e = proj(rng.normal(size=(1, 5)))
    outside = ~masks.data.any(axis=0)
    assert outside.any()
    npt.assert_array_equal(e.data[0][:, outside], 0.0)


def test_encode_locality_gradient_exact():
    rng = np.random.default_rng(5)
    masks = random_masks(rng)
    _, proj = tiny_projector(masks, seed=6)
    x = rng.normal(size=5)
    off = tuple(np.argwhere(masks.data[2] == 0)[0])
    on = tuple(np.argwhere(masks.data[2] == 1)[0])
    # the signal is an array input, so the derivative in x[2] is read off
    # a perturbation: exactly zero off the mask, nonzero on it
    x2 = x.copy()
    x2[2] += 0.5
    e, e2 = proj(x[None]).data[0], proj(x2[None]).data[0]
    npt.assert_array_equal(e2[(slice(None),) + off], e[(slice(None),) + off])
    assert (e2[(slice(None),) + on] != e[(slice(None),) + on]).any()


def test_encode_perturbation_confined_to_mask():
    rng = np.random.default_rng(7)
    masks = random_masks(rng)
    _, proj = tiny_projector(masks, seed=8)
    x = rng.normal(size=5)
    x2 = x.copy()
    x2[1] += 0.7
    e1 = proj(x[None]).data[0]
    e2 = proj(x2[None]).data[0]
    changed = np.abs(e1 - e2).sum(axis=0) > 0
    assert not changed[masks.data[1] == 0].any()
    assert changed[masks.data[1] == 1].any()


def test_encode_masked_independence_between_joints():
    # texels covered only by channel 0 ignore every other scalar
    data = np.zeros((2, 6, 6), dtype=np.uint8)
    data[0, :, :3] = 1
    data[1, :, 2:] = 1
    masks = cond.InfluenceMask(data, ("a", "b"))
    _, proj = tiny_projector(masks, seed=9)
    e1 = proj(np.array([[0.5, 1.0]])).data[0]
    e2 = proj(np.array([[0.5, -4.0]])).data[0]
    only0 = data[0].astype(bool) & ~data[1].astype(bool)
    npt.assert_array_equal(e1[:, only0], e2[:, only0])


def test_encode_grid_mismatch_errors():
    masks = cond.InfluenceMask(np.ones((2, 4, 4), dtype=np.uint8), ("a", "b"))
    _, proj = tiny_projector(masks)
    with pytest.raises(ValueError):
        proj(np.zeros((1, 3)))


def test_encode_float32_stays_float32():
    rng = np.random.default_rng(11)
    masks = random_masks(rng)
    store = dc.ParamStore()
    proj = cond.LocalizedProjector(store, "p", masks.data, hidden=4, out_channels=3,
                                   rng=rng, dtype=np.float32)
    e = proj(rng.normal(size=(1, 5)).astype(np.float32))
    assert e.data.dtype == np.float32


# ----------------------------------------------------------------- heatmap

def test_heatmap_zero_decoder_is_zero():
    fn = lambda vec: np.zeros((3, 8, 8))
    h = cond.influence_heatmap(fn, np.zeros(4), k=1, n_perturb=5)
    npt.assert_array_equal(h, np.zeros((8, 8)))


def test_heatmap_localizes_and_normalizes():
    def fn(vec):
        out = np.zeros((2, 8, 8))
        out[:, :, :4] = vec[0]          # scalar 0 drives the left half
        out[:, :, 4:] = vec[1] ** 2
        return out

    h = cond.influence_heatmap(fn, np.array([0.3, 0.7]), k=0, n_perturb=8)
    assert h.max() == 1.0
    npt.assert_array_equal(h[:, 4:], 0.0)
    assert (h[:, :4] > 0).all()
