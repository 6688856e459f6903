"""Latent geometry encoder, signal-conditioned decoder, quasi-shadow gain,
and LBS composition of the full avatar."""

from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dsaa import avatar, body, diffcore as dc, renderer, rng
from dsaa.conditioning import DrivingSignal, tile2d
from fd import gradcheck
from footprints import displacement_footprint, texture_footprint


# ------------------------------------------------------------------ helpers

def strip_rig(ncol=13, skew=0.0, seed=11):
    """Two-row strip driven by a 3-joint chain (root, mid, head) along +x.

    Same layout as the conditioning tests; `skew` adds small random vertex
    offsets so rendered scenes sit in generic position (no pixel center on
    an edge line, no degenerate finite-difference branches).
    """
    xs = np.linspace(0.0, 2.0, ncol)
    verts, uvs = [], []
    for row, y in enumerate((0.0, 0.2)):
        for x in xs:
            verts.append([x, y, 0.0])
            uvs.append([0.05 + 0.9 * x / 2.0, 0.35 + 0.3 * row])
    verts = np.asarray(verts)
    uvs = np.asarray(uvs)
    if skew:
        r = np.random.default_rng(seed)
        verts = verts + r.uniform(-skew, skew, size=verts.shape)
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


def grid_rig(n=5, res=32):
    """n x n vertex sheet rigidly bound to one joint. Vertex coordinates are
    dyadic (multiples of 2^-2) and UVs hit texel centers of a res x res map
    exactly, so sampling and skinning are exact in floating point."""
    verts, uvs = [], []
    for i in range(n):
        for j in range(n):
            verts.append([j / 4.0, i / 4.0, 0.0])
            uvs.append([(4 * j + 0.5) / res, (4 * i + 0.5) / res])
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            faces.append([a, a + 1, a + n + 1])
            faces.append([a, a + n + 1, a + n])
    tpl = body.TemplateMesh(np.asarray(verts), np.asarray(faces),
                            np.asarray(uvs), np.ones((n * n, 1)))
    skel = body.Skeleton(("root",), np.array([-1]), np.eye(3)[None].copy(),
                         np.zeros((1, 3)))
    return tpl, skel


def build_model(dtype="float64", seed=0, **kw):
    tpl, skel = strip_rig()
    cfg = avatar.AvatarConfig(dtype=dtype, **kw)
    return avatar.AvatarModel(tpl, skel, cfg, seed=seed), tpl, skel


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


SIG = DrivingSignal(theta=np.linspace(-0.4, 0.4, 9),
                    face=np.array([0.3, -0.2, 0.1, 0.5]),
                    view=unit([0.2, 0.3, -0.9]))


def zero_params(model, prefix):
    for name in model.store.names():
        if name.startswith(prefix):
            model.store[name].data[...] = 0.0


# ----------------------------------------------------------- config/manifest

def test_config_validation():
    with pytest.raises(ValueError):
        avatar.AvatarConfig(geo_res=30)             # not divisible by 4
    with pytest.raises(ValueError):
        avatar.AvatarConfig(n_face=-1)
    with pytest.raises(ValueError):
        avatar.AvatarConfig(dtype="float16")


def test_manifest_roundtrip():
    cfg = avatar.AvatarConfig(geo_res=16, n_face=2, use_shadow=False,
                              spatial_local=False, dtype="float64")
    text = avatar.manifest_text(cfg)
    assert avatar.parse_manifest(text) == cfg
    assert avatar.parse_manifest(avatar.manifest_text(avatar.AvatarConfig())) \
        == avatar.AvatarConfig()
    with pytest.raises(ValueError):
        avatar.parse_manifest(text + "bogus_key = 3\n")
    with pytest.raises(ValueError):
        avatar.parse_manifest("geo_res = 8\n")      # missing format line


# ------------------------------------------------------------------- encoder

def test_encode_shapes_floor_determinism():
    model, tpl, _ = build_model()
    wv = tpl.verts.copy()
    wv[:, 2] += 0.02 * np.sin(8.0 * np.pi * wv[:, 0])
    pos = body.render_position_map(wv, tpl.faces, model.atlas)
    dist = model.encode(pos)
    assert dist.mu.data.shape == (16,)
    assert dist.sigma.data.shape == (16,)
    assert dist.sigma.data.min() >= 1e-6
    again = model.encode(pos.copy())
    npt.assert_array_equal(dist.mu.data, again.mu.data)
    npt.assert_array_equal(dist.sigma.data, again.sigma.data)


def test_encode_sigma_floor_is_tight():
    model, tpl, _ = build_model()
    zero_params(model, "enc/head")
    pos = body.render_position_map(tpl.verts, tpl.faces, model.atlas)
    # zeroed head emits raw 0 -> sigma = softplus(0) + floor everywhere
    dist = model.encode(pos)
    npt.assert_allclose(dist.sigma.data, np.log(2.0) + 1e-6, rtol=1e-14)


def test_encode_rejects_bad_input():
    model, tpl, _ = build_model()
    with pytest.raises(ValueError):
        model.encode(np.zeros((3, 16, 16)))
    bad = np.zeros((3, 32, 32))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        model.encode(bad)
    nolat, _, _ = build_model(use_latent=False)
    pos = body.render_position_map(tpl.verts, tpl.faces, model.atlas)
    with pytest.raises(RuntimeError):
        nolat.encode(pos)


# ----------------------------------------------------------- reparameterize

def test_reparameterize_eps_zero_gives_mu():
    r = rng.stream(0, "avatar", "reparam")
    mu = dc.Tensor(r.normal(size=16))
    sig = dc.Tensor(r.uniform(0.5, 1.5, size=16))
    dist = avatar.LatentDistribution(mu, sig)
    z = avatar.reparameterize(dist, np.zeros(16))
    npt.assert_array_equal(z.data, mu.data)
    with pytest.raises(ValueError):
        avatar.reparameterize(dist, np.zeros(5))


def test_reparameterize_sigma_collapse():
    mu = dc.Tensor(np.linspace(-1.0, 1.0, 16))
    dist = avatar.LatentDistribution(mu, dc.Tensor(np.full(16, 1e-300)))
    z = avatar.reparameterize(dist, np.full(16, 1e6))
    npt.assert_allclose(z.data, mu.data, atol=1e-290)


def test_reparameterize_sample_mean_clt():
    r = rng.stream(0, "avatar", "clt")
    mu = r.normal(size=16)
    sig = r.uniform(0.5, 1.0, size=16)
    dist = avatar.LatentDistribution(dc.Tensor(mu), dc.Tensor(sig))
    n = 100_000
    z = avatar.reparameterize(dist, r.standard_normal((n, 16)))
    assert z.data.shape == (n, 16)
    err = np.abs(z.data.mean(axis=0) - mu)
    assert (err <= 3.0 * sig / np.sqrt(n)).all()


def test_reparameterize_gradients():
    r = rng.stream(0, "avatar", "repgrad")
    mu = dc.Tensor(r.normal(size=16), requires_grad=True)
    sig = dc.Tensor(r.uniform(0.5, 1.5, size=16), requires_grad=True)
    eps = r.normal(size=16)
    c = r.normal(size=16)
    z = avatar.reparameterize(avatar.LatentDistribution(mu, sig), eps)
    dc.backward(dc.sum_(dc.mul(z, c)))
    npt.assert_array_equal(mu.grad, c)
    npt.assert_array_equal(sig.grad, c * eps)


# ------------------------------------------------------------------- decoder

def test_decode_shapes_and_dtype():
    for dtype in ("float32", "float64"):
        model, _, _ = build_model(dtype=dtype)
        z = rng.stream(3, "z").normal(size=16)
        disp, tex = model.decode(SIG, z)
        assert disp.data.shape == (3, 32, 32)
        assert tex.data.shape == (3, 64, 64)
        assert disp.dtype == np.dtype(dtype)
        assert tex.dtype == np.dtype(dtype)
        assert tex.data.min() > 0.0 and tex.data.max() < 1.0


def test_zero_decoder_gives_template_lbs():
    model, tpl, skel = build_model(use_shadow=False)
    zero_params(model, "dec/")
    zero_params(model, "cond/")
    theta = np.array([0.1, -0.2, 0.3, 0.2, 0.1, -0.3, 0.05, 0.0, -0.1])
    sig = DrivingSignal(theta, SIG.face, SIG.view)
    disp, _ = model.decode(sig, np.zeros(16))
    npt.assert_array_equal(disp.data, 0.0)
    out = model.forward(sig, np.zeros(16))
    ref = body.lbs_apply(tpl.verts, body.forward_kinematics(skel, theta),
                         tpl.weights)
    npt.assert_array_equal(out.posed.data, ref)
    npt.assert_array_equal(dc.texture_sample(disp, tpl.uvs).data, 0.0)


def test_decode_validates_inputs():
    model, _, _ = build_model()
    with pytest.raises(ValueError):
        model.decode(SIG, np.zeros(4))
    with pytest.raises(ValueError):
        model.decode(DrivingSignal(np.zeros(5), SIG.face, SIG.view),
                     np.zeros(16))
    bad = np.zeros(16)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        model.decode(SIG, bad)


def test_decode_default_z_is_zero_imputation():
    model, _, _ = build_model()
    d0, t0 = model.decode(SIG)
    d1, t1 = model.decode(SIG, np.zeros(16))
    npt.assert_array_equal(d0.data, d1.data)
    npt.assert_array_equal(t0.data, t1.data)


# ---------------------------------------------------------------- footprints

def _brute_grow(m):
    h, w = m.shape
    out = np.zeros((h, w), dtype=bool)
    for i, j in zip(*np.nonzero(m)):
        out[max(0, i - 1):i + 2, max(0, j - 1):j + 2] = True
    return out


def _brute_texture_footprint(m):
    a = _brute_grow(m)
    h, w = a.shape
    b = np.zeros((2 * h, 2 * w), dtype=bool)
    for i, j in zip(*np.nonzero(a)):
        for di in (-1, 0, 1, 2):        # 4/2/1 transposed conv support
            for dj in (-1, 0, 1, 2):
                r, c = 2 * i + di, 2 * j + dj
                if 0 <= r < 2 * h and 0 <= c < 2 * w:
                    b[r, c] = True
    return _brute_grow(b)


def test_footprint_helpers_match_bruteforce():
    cases = []
    one = np.zeros((16, 16), dtype=np.uint8)
    one[7, 5] = 1
    cases.append(one)
    corner = np.zeros((16, 16), dtype=np.uint8)
    corner[0, 0] = 1
    corner[15, 15] = 1
    cases.append(corner)
    cases.append((rng.stream(0, "fp").uniform(size=(16, 16)) < 0.1).astype(np.uint8))
    for m in cases:
        npt.assert_array_equal(displacement_footprint(m), _brute_grow(m))
        npt.assert_array_equal(texture_footprint(m),
                               _brute_texture_footprint(m))


def test_signal_locality_respects_footprints():
    model, _, _ = build_model(seed=2)
    z = rng.stream(2, "z").normal(size=16)
    d0, t0 = model.decode(SIG, z)

    # pose scalar 3 = mid joint rx; its changes stay inside the derived cones
    th = SIG.theta.copy()
    th[3] += 0.37
    d1, t1 = model.decode(DrivingSignal(th, SIG.face, SIG.view), z)
    mask = model.masks.data[3]
    fp_g = displacement_footprint(mask)
    fp_t = texture_footprint(mask)
    dd = (d1.data - d0.data) != 0.0
    dt = (t1.data - t0.data) != 0.0
    assert dd.any() and dt.any()
    assert not dd[:, ~fp_g].any()
    assert not dt[:, ~fp_t].any()

    # face scalar 1 is confined to the head region's cone the same way
    fc = SIG.face.copy()
    fc[1] -= 0.53
    d2, t2 = model.decode(DrivingSignal(SIG.theta, fc, SIG.view), z)
    mask_f = model.masks.data[model.masks.n_pose + 1]
    dtf = (t2.data - t0.data) != 0.0
    assert dtf.any()
    assert not dtf[:, ~texture_footprint(mask_f)].any()


def test_latent_reaches_every_texel():
    # z is tiled across the bottleneck, so its influence has full support
    model, _, _ = build_model(seed=4)
    z = rng.stream(4, "z").normal(size=16)
    d0, t0 = model.decode(SIG, z)
    z2 = z.copy()
    z2[0] += 0.5
    d1, t1 = model.decode(SIG, z2)
    assert (np.abs(d1.data - d0.data) > 0.0).all()
    assert (np.abs(t1.data - t0.data) > 0.0).all()


# -------------------------------------------------------------------- shadow

def test_shadow_shapes_range_and_errors():
    model, _, _ = build_model()
    ao = rng.stream(0, "ao").uniform(0.2, 1.0, size=(1, 16, 16))
    gain = model.shadow_gain(ao)
    assert gain.data.shape == (1, 16, 16)
    assert gain.data.min() > 0.0 and gain.data.max() <= 2.0
    with pytest.raises(ValueError):
        model.shadow_gain(np.ones((1, 8, 8)))
    with pytest.raises(ValueError):
        model.shadow_gain(np.full((1, 16, 16), np.nan))
    noshadow, _, _ = build_model(use_shadow=False)
    with pytest.raises(ValueError):
        noshadow.shadow_gain(ao)


def test_shadow_zero_params_is_unit_gain():
    model, _, _ = build_model()
    zero_params(model, "shadow/")
    gain = model.shadow_gain(np.full((1, 16, 16), 0.4))
    npt.assert_array_equal(gain.data, 1.0)


def test_shadow_smoother_for_constant_ao():
    model, _, _ = build_model(seed=7)
    flat = model.shadow_gain(np.full((1, 16, 16), 0.5)).data[0]
    ii, jj = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    checker = (0.25 + 0.5 * ((ii + jj) % 2)).astype(np.float64)
    rough = model.shadow_gain(checker[None]).data[0]

    def max_grad(img):
        return max(np.abs(np.diff(img, axis=0)).max(),
                   np.abs(np.diff(img, axis=1)).max())

    assert max_grad(flat) < max_grad(rough)


# ------------------------------------------------------------------- compose

def test_compose_identity():
    tpl, skel = grid_rig()
    r = rng.stream(0, "compose")
    tex = dc.Tensor(r.uniform(0.05, 0.95, size=(3, 64, 64)))
    disp = dc.Tensor(np.zeros((3, 32, 32)))
    gain = dc.Tensor(np.ones((1, 16, 16)))
    out = avatar.compose(np.zeros(3), disp, tex, gain, tpl, skel)
    npt.assert_array_equal(out.posed.data, tpl.verts)
    npt.assert_array_equal(out.final.data, tex.data)


def test_gain_doubling_doubles_preclamp():
    r = rng.stream(1, "compose")
    tex = dc.Tensor(r.uniform(0.05, 0.95, size=(3, 64, 64)))
    g = r.uniform(0.4, 1.1, size=(1, 16, 16))
    # tex * 2g stays below 1 where 2g <= 1, so the clamp leaves it alone
    small = np.minimum(g, 0.5)
    once, = avatar.apply_gain([tex], dc.Tensor(small))
    twice, = avatar.apply_gain([tex], dc.Tensor(2.0 * small))
    npt.assert_array_equal(twice.data, 2.0 * once.data)
    clamped, = avatar.apply_gain([tex], dc.Tensor(2.0 * g))
    assert clamped.data.max() == 1.0 and clamped.data.min() >= 0.0
    with pytest.raises(ValueError):
        avatar.apply_gain([tex], dc.Tensor(np.ones((1, 8, 8))))


def test_corrective_additivity_exact():
    tpl, skel = grid_rig()
    r = rng.stream(2, "compose")
    # dyadic displacement entries keep every add/sample bit-exact
    d1 = np.floor(r.uniform(-256, 256, size=(3, 32, 32))) / 1024.0
    d2 = np.floor(r.uniform(-256, 256, size=(3, 32, 32))) / 1024.0
    tex = dc.Tensor(np.full((3, 64, 64), 0.5))
    gain = dc.Tensor(np.ones((1, 16, 16)))

    def geo(d):
        # the rest pose of this rig skins exactly, so posed = canonical
        return avatar.compose(np.zeros(3), dc.Tensor(d), tex, gain,
                              tpl, skel).posed.data

    npt.assert_array_equal(geo(d1 + d2), geo(d1) + geo(d2) - tpl.verts)


def test_corrective_additivity_posed_general():
    tpl, skel = strip_rig(skew=0.01)
    r = rng.stream(3, "compose")
    d1 = r.normal(size=(3, 32, 32)) * 0.05
    d2 = r.normal(size=(3, 32, 32)) * 0.05
    tex = dc.Tensor(np.full((3, 64, 64), 0.5))
    gain = dc.Tensor(np.ones((1, 16, 16)))
    theta = r.uniform(-0.5, 0.5, size=9)

    def posed(d):
        return avatar.compose(theta, dc.Tensor(d), tex, gain, tpl, skel).posed.data

    lhs = posed(d1 + d2)
    rhs = posed(d1) + posed(d2) - posed(np.zeros((3, 32, 32)))
    npt.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_compose_rejects_nonfinite_geometry():
    tpl, skel = grid_rig()
    disp = np.zeros((3, 32, 32))
    disp[1, 4, 8] = np.inf          # texel under the (1,2) grid vertex
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        avatar.compose(np.zeros(3), dc.Tensor(disp),
                       dc.Tensor(np.full((3, 64, 64), 0.5)),
                       dc.Tensor(np.ones((1, 16, 16))), tpl, skel)


# ------------------------------------------------- end-to-end differentiation

def test_render_loss_fd_wrt_decoder_and_shadow_weights():
    tpl, skel = strip_rig(skew=0.013)
    cfg = avatar.AvatarConfig(dtype="float64")
    model = avatar.AvatarModel(tpl, skel, cfg, seed=9)
    # keep the gain mild so no pixel sits on the [0,1] clamp boundary
    model.store["shadow/out/b"].data[...] = -1.0
    r = rng.stream(9, "e2e")
    theta = r.uniform(-0.3, 0.3, size=9)
    sig = DrivingSignal(theta, r.uniform(-0.5, 0.5, size=4), unit([0.1, 0.2, -0.97]))
    z = r.normal(size=16) * 0.5
    ao = r.uniform(0.3, 1.0, size=(1, 16, 16))

    R, t = renderer.look_at((1.0, 0.1, -2.5), (1.0, 0.1, 0.0))
    cam = renderer.Camera(70.0, 70.0, 32.0, 32.0, R, t, 64, 64)
    rcfg = renderer.RasterConfig(window=None)
    target = r.uniform(0.0, 1.0, size=(3, 64, 64))

    dec, shd = model.decoder, model.shadow
    keep = (dec.w_trunk, dec.w_tex1, shd.w4)

    def loss(wt, wx, ws):
        dec.w_trunk, dec.w_tex1, shd.w4 = wt, wx, ws
        out = model.forward(sig, z, ao)
        assert float(out.final.data.max()) < 0.99      # below the clamp
        rt = renderer.rasterize(out.posed, tpl.faces, tpl.uvs, out.final, cam, rcfg)
        return renderer.l2_sum(rt.image, target)

    try:
        err = gradcheck(loss, [k.data for k in keep],
                           eps=1e-4, floor=1e-4, sample=5)
    finally:
        dec.w_trunk, dec.w_tex1, shd.w4 = keep
    assert err < 1e-3, f"avatar e2e FD rel err {err:.3e}"


# --------------------------------------------------------- checkpoints/flags

def test_checkpoint_roundtrip_bitwise(tmp_path):
    model, tpl, skel = build_model(dtype="float32", seed=5)
    z = rng.stream(5, "z").normal(size=16)
    ao = rng.stream(5, "ao").uniform(0.3, 1.0, size=(1, 16, 16))
    path = tmp_path / "model.ckpt"
    model.save(path)
    assert (tmp_path / "model.ckpt.manifest").exists()

    clone = avatar.AvatarModel.load(path, tpl, skel)
    assert clone.config == model.config
    a = model.forward(SIG, z, ao)
    b = clone.forward(SIG, z, ao)
    npt.assert_array_equal(a.posed.data, b.posed.data)
    npt.assert_array_equal(a.final.data, b.final.data)


def test_checkpoint_rejects_mismatched_manifest(tmp_path):
    model, tpl, skel = build_model(dtype="float32")
    path = tmp_path / "model.ckpt"
    model.save(path)
    mpath = tmp_path / "model.ckpt.manifest"
    text = mpath.read_text().replace("use_shadow = true", "use_shadow = false")
    mpath.write_text(text)
    with pytest.raises(ValueError, match="unexpected arrays"):
        avatar.AvatarModel.load(path, tpl, skel)
    # a manifest that asks for more arrays than the container holds
    model, _, _ = build_model(dtype="float32", use_shadow=False)
    model.save(path)
    mpath.write_text(text.replace("use_shadow = false", "use_shadow = true"))
    with pytest.raises(ValueError, match=r"missing arrays: \['shadow/"):
        avatar.AvatarModel.load(path, tpl, skel)


def test_interrupted_save_leaves_the_previous_manifest(tmp_path, monkeypatch):
    model, _, _ = build_model(dtype="float32")
    path = tmp_path / "model.ckpt"
    model.save(path)
    before = (tmp_path / "model.ckpt.manifest").read_bytes()

    real = Path.write_bytes

    def torn(self, data):
        # the one writer's write step stops halfway through the manifest's
        # temp, as on a full disk
        if not self.name.startswith("model.ckpt.manifest."):
            return real(self, data)
        with open(self, "wb") as f:
            f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", torn)
    with pytest.raises(OSError):
        model.save(path)
    assert (tmp_path / "model.ckpt.manifest").read_bytes() == before


def test_same_seed_same_parameters():
    a, _, _ = build_model(seed=6)
    b, _, _ = build_model(seed=6)
    sa, sb = a.store.state_arrays(), b.store.state_arrays()
    assert sa.keys() == sb.keys()
    for k in sa:
        npt.assert_array_equal(sa[k], sb[k])


def test_no_latent_variant(tmp_path):
    model, tpl, skel = build_model(use_latent=False, use_shadow=False)
    assert not any(n.startswith("enc/") for n in model.store.names())
    out = model.forward(SIG)                       # z imputed as zero
    assert out.posed.data.shape == (26, 3)
    with pytest.raises(ValueError):
        model.decode(SIG, np.zeros(16))            # latent-free model
    path = tmp_path / "nolat.ckpt"
    model.save(path)
    clone = avatar.AvatarModel.load(path, tpl, skel)
    assert not clone.config.use_latent
    npt.assert_array_equal(clone.forward(SIG).final.data, out.final.data)


def test_shadow_flag_controls_gain_path():
    model, _, _ = build_model(use_shadow=False)
    assert not any(n.startswith("shadow/") for n in model.store.names())
    npt.assert_array_equal(model.shadow_gain().data, 1.0)
    with pytest.raises(ValueError):
        model.forward(SIG, np.zeros(16), np.ones((1, 16, 16)))
    withshadow, _, _ = build_model()
    with pytest.raises(ValueError):
        withshadow.forward(SIG, np.zeros(16))      # shadow branch needs AO


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("use_shadow", [True, False])
def test_geometry_and_appearance_match_forward(dtype, use_shadow):
    model, _, _ = build_model(dtype=dtype, seed=4, use_shadow=use_shadow)
    z = rng.stream(4, "z").normal(size=16)
    ao = (rng.stream(4, "ao").uniform(0.3, 1.0, size=(1, 16, 16))
          if use_shadow else None)
    ref = model.forward(SIG, z, ao)
    posed, trunk = model.geometry(SIG, z)
    final, = model.appearance(trunk, [SIG.view], model.shadow_gain(ao))
    disp = model.displacement(SIG, z)
    assert posed.dtype == final.dtype == disp.dtype == np.dtype(dtype)
    assert posed.data.tobytes() == ref.posed.data.tobytes()
    assert final.data.tobytes() == ref.final.data.tobytes()
    assert disp.data.tobytes() == model.decode(SIG, z)[0].data.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("use_shadow", [True, False])
def test_appearance_over_views_matches_one_call_per_view(dtype, use_shadow):
    model, _, _ = build_model(dtype=dtype, seed=5, use_shadow=use_shadow)
    r = rng.stream(5, "views")
    views = [SIG.view] + [unit(v) for v in r.normal(size=(3, 3))]
    ao = r.uniform(0.3, 1.0, size=(1, 16, 16)) if use_shadow else None
    _, trunk = model.geometry(SIG, r.normal(size=16))
    gain = model.shadow_gain(ao)
    finals = model.appearance(trunk, views, gain)
    assert len(finals) == len(views)
    for view, final in zip(views, finals):
        one, = model.appearance(trunk, [view], gain)
        assert final.dtype == one.dtype == np.dtype(dtype)
        assert final.data.tobytes() == one.data.tobytes()
    assert finals[0].data.tobytes() != finals[1].data.tobytes()


def full_tile_decoder(dec, z, e_pose, e_face):
    """The decoder's call as z broadcast over the whole (geo_res/4)^2
    bottleneck, upsampled twice and concatenated with the embeddings
    under one 3x3 trunk conv."""
    gr = e_pose.shape[1]
    g = gr // 4
    zm = dc.reshape(tile2d(z, g, g), (1, z.shape[0], g, g))
    x = dc.conv_transpose2d(zm, dec.w_up1, dec.b_up1, act="leaky")
    x = dc.conv_transpose2d(x, dec.w_up2, dec.b_up2, act="leaky")
    ep = dc.reshape(e_pose, (1,) + tuple(e_pose.shape))
    ef = dc.reshape(e_face, (1,) + tuple(e_face.shape))
    trunk = dc.conv2d(dc.concat([x, ep, ef], axis=1), dec.w_trunk,
                      dec.b_trunk, padding=1, act="leaky")
    disp = dc.reshape(dc.conv2d(trunk, dec.w_geo, dec.b_geo), (3, gr, gr))
    return disp, trunk


def _decoder_run(model, call, z, e_pose, e_face, upstream):
    """Outputs (displacement, trunk) and the gradients of z, e_pose,
    e_face and every dec/ parameter under fixed upstream weights on the
    displacement, the trunk and one texture."""
    dec = model.decoder
    model.store.zero_grad()
    zt, ep, ef = (dc.Tensor(a.copy(), requires_grad=True) for a in (z, e_pose, e_face))
    disp, trunk = call(dec, zt, ep, ef)
    tex, = dec.texture(trunk, [SIG.view])
    gd, gt, gx = upstream
    dc.backward(dc.add(dc.add(dc.sum_(dc.mul(disp, gd)), dc.sum_(dc.mul(trunk, gt))),
                       dc.sum_(dc.mul(tex, gx))))
    grads = {"z": zt.grad, "e_pose": ep.grad, "e_face": ef.grad}
    grads.update({n: t.grad for n, t in model.store.items() if n.startswith("dec/")})
    return {"disp": disp.data, "trunk": trunk.data}, grads


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-13)])
@pytest.mark.parametrize("geo_res", [8, 12, 16, 32, 64])
def test_decoder_matches_full_tile_reference(dtype, tol, geo_res):
    model, _, _ = build_model(dtype=dtype, seed=6, geo_res=geo_res)
    r = rng.stream(6, "decoder", geo_res)
    for name, t in model.store.items():
        if name.startswith("dec/") and name.endswith("/b"):
            t.data[...] = r.normal(scale=0.3, size=t.shape)
    ec, dt = model.config.embed_channels, np.dtype(dtype)
    z = r.normal(size=16).astype(dt)
    e_pose, e_face = r.normal(size=(2, ec, geo_res, geo_res)).astype(dt)
    upstream = (r.normal(size=(3, geo_res, geo_res)).astype(dt),
                r.normal(size=(1, 32, geo_res, geo_res)).astype(dt),
                r.normal(size=(3, 2 * geo_res, 2 * geo_res)).astype(dt))
    got = _decoder_run(model, avatar.AvatarDecoder.__call__, z, e_pose, e_face, upstream)
    want = _decoder_run(model, full_tile_decoder, z, e_pose, e_face, upstream)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for k in w:
            assert g[k].dtype == w[k].dtype == dt, k
            assert g[k].shape == w[k].shape, k
            assert np.abs(g[k] - w[k]).max() <= tol * np.abs(w[k]).max(), k
    assert len(want[1]) == 3 + 2 * 7
    assert np.abs(want[1]["z"]).min() > 0.0


def test_decoder_fd_wrt_trunk():
    # both channel groups of w_trunk (latent and embeddings) and its bias
    model, _, _ = build_model(seed=10, geo_res=16)
    dec = model.decoder
    r = rng.stream(10, "trunk")
    z = dc.Tensor(r.normal(size=16))
    e_pose, e_face = (dc.Tensor(e) for e in r.normal(size=(2, 8, 16, 16)))
    target = r.normal(size=(3, 16, 16))
    wg = dec.w_up2.shape[1]
    keep = dec.w_trunk, dec.b_trunk

    def loss(w_z, w_e, b):
        dec.w_trunk, dec.b_trunk = dc.concat([w_z, w_e], axis=1), b
        disp, _ = dec(z, e_pose, e_face)
        return dc.sum_(dc.mul(disp, target))

    try:
        err = gradcheck(loss, [keep[0].data[:, :wg], keep[0].data[:, wg:],
                               r.normal(scale=0.3, size=keep[1].shape)], sample=12)
    finally:
        dec.w_trunk, dec.b_trunk = keep
    assert err < 1e-6, f"trunk FD rel err {err:.3e}"


def concat_conv_texture(dec, trunk, views):
    """The texture head as one tex1 conv per view over the upsample
    concatenated with the view vector tiled over the whole map."""
    up = dc.conv_transpose2d(trunk, dec.w_texup, dec.b_texup, act="leaky")
    tr = up.shape[2]
    out = []
    for view in views:
        vmap = np.broadcast_to(np.asarray(view, dtype=up.dtype)[None, :, None, None],
                               (1, 3, tr, tr)).copy()
        tx = dc.conv2d(dc.concat([up, dc.Tensor(vmap)], axis=1), dec.w_tex1,
                       dec.b_tex1, padding=1, act="leaky")
        tex = dc.conv2d(tx, dec.w_tex2, dec.b_tex2, act="sigmoid")
        out.append(dc.reshape(tex, (3, tr, tr)))
    return out


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-6), ("float64", 1e-12)])
@pytest.mark.parametrize("geo_res", [8, 32])
@pytest.mark.parametrize("n_views", [1, 4])
def test_texture_matches_concat_and_conv(dtype, tol, geo_res, n_views):
    model, _, _ = build_model(dtype=dtype, seed=7, geo_res=geo_res)
    r = rng.stream(7, "views")
    views = [SIG.view] + [unit(v) for v in r.normal(size=(n_views - 1, 3))]
    _, trunk = model.geometry(SIG, r.normal(size=16))
    got = model.decoder.texture(trunk, views)
    want = concat_conv_texture(model.decoder, trunk, views)
    assert len(got) == len(want) == n_views
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.dtype(dtype)
        assert g.shape == w.shape == (3, 2 * geo_res, 2 * geo_res)
        assert np.abs(g.data - w.data).max() <= tol
    # the view reaches every border class of the bias map
    no_view, = concat_conv_texture(model.decoder, trunk, [np.zeros(3)])
    rows = np.abs(want[0].data - no_view.data).max(axis=(0, 2))
    assert (rows[[0, 1, -2, -1]] > 1e3 * tol).all()


def test_texture_fd_wrt_tex1():
    # both channel groups of w_tex1 (upsample and view) and its bias
    model, _, _ = build_model(seed=8, geo_res=8)
    dec = model.decoder
    r = rng.stream(8, "tex1")
    views = [SIG.view, unit([0.5, -0.4, 0.2])]
    _, trunk = model.geometry(SIG, r.normal(size=16))
    trunk = dc.Tensor(trunk.data)
    target = r.uniform(size=(len(views), 3, 16, 16))
    wt = dec.w_tex1.shape[1] - 3
    keep = dec.w_tex1, dec.b_tex1

    def loss(w_up, w_view, b):
        dec.w_tex1, dec.b_tex1 = dc.concat([w_up, w_view], axis=1), b
        texs = dc.stack(dec.texture(trunk, views))
        return dc.sum_(dc.mul(texs, target))

    try:
        err = gradcheck(loss, [keep[0].data[:, :wt], keep[0].data[:, wt:], keep[1].data],
                        sample=12)
    finally:
        dec.w_tex1, dec.b_tex1 = keep
    assert err < 1e-6, f"tex1 FD rel err {err:.3e}"


def test_spatial_local_flag_widens_influence():
    local, _, _ = build_model(seed=2)
    dense, _, _ = build_model(seed=2, spatial_local=False)
    assert dense.masks.data.min() == 1
    z = rng.stream(2, "z").normal(size=16)
    th = SIG.theta.copy()
    th[3] += 0.37
    sig2 = DrivingSignal(th, SIG.face, SIG.view)
    fp = texture_footprint(local.masks.data[3])
    _, t0 = dense.decode(SIG, z)
    _, t1 = dense.decode(sig2, z)
    outside = (t1.data - t0.data)[:, ~fp]
    assert np.abs(outside).max() > 0.0
