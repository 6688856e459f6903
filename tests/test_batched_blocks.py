"""The model's geometry blocks over a batch of frames, against the same
blocks on a batch of one frame at a time (the calls single-frame paths
make; every block takes [B, ...] input only).

Each frame's slice of a block's output is byte for byte the block's
call on a batch of that frame alone where the block's forward products
stay within
a frame: the projectors, the decoder trunk, the shadow net, posing and
the Laplacian term. The encoder's head is one product over the batch
(and its last conv's few windows per frame take another BLAS kernel at
B > 1), so its moments may round otherwise in float32. A parameter's
gradient sums the batch inside one product, so a batched pass's
gradients equal the sum of the per-frame ones to the dtype's rounding.
"""

import importlib

import numpy as np
import pytest

from dsaa import body, diffcore as dc
from dsaa import synthdata as sd
from dsaa.avatar import AvatarConfig, AvatarModel, reparameterize
from dsaa.body import lbs
from dsaa.disentangle import kl_loss
from dsaa.harness import TrainConfig, TrainData, train, trainer
from dsaa.renderer import laplacian_loss, losses, rasterize
from dsaa.rng import stream
from dsaa.synthdata import raster_config

B = 3
DTYPES = [("float32", 1e-5), ("float64", 1e-12)]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("batched")
    sd.generate_dataset(sd.SceneSpec(image_size=32, seed=6), root, B)
    return root


def _setup(dataset, dtype):
    config = AvatarConfig(geo_res=16, dtype=dtype)
    data = TrainData(dataset, geo_res=config.geo_res, ao_res=config.shadow_res)
    model = AvatarModel(data.template, data.skeleton, config, seed=4)
    # every parameter off its initial value, the zero biases included
    noise = stream(4, "batched-params")
    for _, t in model.store.items():
        t.data += (0.05 * noise.standard_normal(t.shape)).astype(t.dtype)
    ids = data.ids()
    signals = [data.signal(fid, b % len(data.cameras))
               for b, fid in enumerate(ids)]
    return data, model, ids, signals


def _same(batched, frames):
    return all(np.ascontiguousarray(batched[b]).tobytes() == f.tobytes()
               for b, f in enumerate(frames))


@pytest.mark.parametrize("dtype,tol", DTYPES)
def test_frame_slices_equal_single_frame_calls(dataset, dtype, tol):
    data, model, ids, signals = _setup(dataset, dtype)
    dt = model.config.np_dtype
    z = stream(4, "batched-z").standard_normal((B, model.config.d_z)).astype(dt)
    theta = np.stack([s.theta for s in signals]).astype(dt)
    face = np.stack([s.face for s in signals]).astype(dt)

    ep, ef = model.proj_pose(theta), model.proj_face(face)
    assert _same(ep.data, [model.proj_pose(t[None]).data[0] for t in theta])
    assert _same(ef.data, [model.proj_face(f[None]).data[0] for f in face])

    disp, trunk = model.decoder(dc.Tensor(z), ep, ef)
    ones = [model.decoder(*(dc.Tensor(a[b:b + 1])
                            for a in (z, ep.data, ef.data))) for b in range(B)]
    assert disp.shape == (B, 3, 16, 16)
    assert _same(disp.data, [d.data[0] for d, _ in ones])
    assert _same(trunk.data, [t.data[0] for _, t in ones])

    ao = np.stack([data.ao(fid) for fid in ids])
    gain = model.shadow(ao)
    assert _same(gain.data, [model.shadow(a[None]).data[0] for a in ao])

    posed = model._posing(theta, disp)
    assert posed.shape == (B, len(data.template.verts), 3)
    assert _same(posed.data, [model._posing(t[None], dc.Tensor(d[None]))
                              .data[0] for t, d in zip(theta, disp.data)])

    # the encoder's head spans the batch: float32 rounding only
    maps = np.stack([data.pos_map(fid) for fid in ids])
    dist = model.encoder(maps)
    for b, m in enumerate(maps):
        one = model.encoder(m[None])
        for got, ref in ((dist.mu, one.mu), (dist.sigma, one.sigma)):
            err = np.abs(got.data[b] - ref.data[0]).max()
            assert err <= tol * np.abs(ref.data).max(), "encoder"


LONE_FRAME = ["projector", "encoder", "decoder", "shadow", "posing",
              "posing_lone_pose", "laplacian_loss", "geometry", "displacement"]


@pytest.mark.parametrize("block", LONE_FRAME)
def test_blocks_refuse_a_lone_frame(dataset, block):
    # each block takes [B, ...] input only: a lone frame is refused with
    # the shape it needs, not run through a second, single-frame form
    data, model, ids, signals = _setup(dataset, "float64")
    sig, fid = signals[0], ids[0]
    g, ec = model.config.geo_res, model.config.embed_channels
    verts = dc.Tensor(data.frame(fid).verts.astype(np.float64))
    lap = data.laplacian(fid, np.float64)
    embed = dc.Tensor(np.zeros((ec, g, g)))
    call = {
        "projector": lambda: model.proj_pose(sig.theta),
        "encoder": lambda: model.encoder(data.pos_map(fid)),
        "decoder": lambda: model.decoder(
            dc.Tensor(np.zeros(model.config.d_z)), embed, embed),
        "shadow": lambda: model.shadow(data.ao(fid)),
        "posing": lambda: model._posing(sig.theta,
                                        dc.Tensor(np.zeros((3, g, g)))),
        "posing_lone_pose": lambda: model._posing(
            sig.theta, dc.Tensor(np.zeros((1, 3, g, g)))),
        "laplacian_loss": lambda: laplacian_loss(data.template, verts, lap),
        "geometry": lambda: model.geometry(sig),
        "displacement": lambda: model.displacement(sig),
    }[block]
    with pytest.raises(ValueError, match=r"\[B[,\]]"):
        call()


@pytest.mark.parametrize("dtype,tol", DTYPES)
def test_laplacian_term_per_frame_gradients(dataset, dtype, tol):
    data, model, ids, signals = _setup(dataset, dtype)
    dt = model.config.np_dtype
    r = stream(5, "batched-lap")
    V = len(data.template.verts)
    verts = (data.template.verts + 0.01 * r.standard_normal((B, V, 3))).astype(dt)
    gt = np.stack([data.laplacian(fid, dt) for fid in ids])
    x = dc.Tensor(verts, requires_grad=True)
    term = laplacian_loss(data.template, x, gt)
    dc.backward(term)
    values, grads = [], []
    for b in range(B):
        xb = dc.Tensor(verts[b:b + 1].copy(), requires_grad=True)
        one = laplacian_loss(data.template, xb, gt[b:b + 1])
        dc.backward(one)
        values.append(float(one.data))
        grads.append(xb.grad[0])
    assert _same(x.grad, grads)
    assert abs(float(term.data) - sum(values)) <= tol * sum(values)


def _model_pass(model, data, ids, signals, eps, batched):
    """Loss of the trainer's phase-2 forward on the frames (image, mask,
    Laplacian and KL terms), backpropagated: the geometry half once over
    the batch, or every block on a batch of one frame at a time."""
    cfg = raster_config(data.spec)
    tpl = data.template
    laps = np.stack([data.laplacian(fid, model.config.np_dtype) for fid in ids])

    def image_terms(posed, trunk, gain, b):
        sig, fr, cam = signals[b], data.frame(ids[b]), b % len(data.cameras)
        final = model.appearance(trunk, [sig.view], gain)[0]
        render = rasterize(posed, tpl.faces, tpl.uvs, final, data.cameras[cam], cfg)
        return losses(render, fr.images[cam], fr.masks[cam])[0]

    if batched:
        dist = model.encoder(np.stack([data.pos_map(fid) for fid in ids]))
        z = reparameterize(dist, eps)
        posed, trunk = model.geometry(signals, z)
        gain = model.shadow(np.stack([data.ao(fid) for fid in ids]))
        total = kl_loss(dist)
        for b in range(len(ids)):
            total = dc.add(total, image_terms(
                dc.getitem(posed, b), dc.getitem(trunk, slice(b, b + 1)),
                dc.getitem(gain, b), b))
        dc.backward(dc.add(total, laplacian_loss(tpl, posed, laps)))
        return
    for b, fid in enumerate(ids):
        dist = model.encoder(data.pos_map(fid)[None])
        posed, trunk = model.geometry(signals[b:b + 1],
                                      reparameterize(dist, eps[b:b + 1]))
        gain = model.shadow(data.ao(fid)[None])
        total = dc.add(kl_loss(dist), image_terms(
            dc.getitem(posed, 0), trunk, dc.getitem(gain, 0), b))
        dc.backward(dc.add(total, laplacian_loss(tpl, posed, laps[b:b + 1])))


def test_batched_gradients_are_the_per_frame_sum(dataset):
    # float64 pins the arithmetic; in float32 the soft rasterizer makes a
    # frame's gradients sensitive to rounding anywhere upstream, so both
    # float32 passes are held to the float64 one instead: the batched
    # pass may miss it by at most twice what the per-frame pass does
    grads = {}
    for dtype in ("float32", "float64"):
        data, model, ids, signals = _setup(dataset, dtype)
        if dtype == "float64":           # the float32 model's parameters
            for (_, t), (_, t32) in zip(model.store.items(), f32.store.items()):
                t.data[...] = t32.data
        f32 = model
        eps = stream(4, "batched-eps").standard_normal((B, model.config.d_z))
        for batched in (True, False):
            model.store.zero_grad()
            _model_pass(model, data, ids, signals, eps, batched)
            grads[dtype, batched] = {name: t.grad.astype(np.float64)
                                     for name, t in model.store.items()
                                     if t.grad is not None}
    ref = grads["float64", False]
    assert all(g.keys() == ref.keys() for g in grads.values())
    assert ref.keys() == dict(model.store.items()).keys()
    for name, g in ref.items():
        scale = np.linalg.norm(g)
        assert np.linalg.norm(grads["float64", True][name] - g) <= 1e-12 * scale, name
        err = [np.linalg.norm(grads["float32", b][name] - g) for b in (True, False)]
        assert err[0] <= 2 * err[1] + 1e-6 * scale, name


# ---------------------------------------------------------------- posing

def _einsum_lbs(weights, transforms, verts, g):
    """The einsum form of blend skinning: (posed, vertex gradient)."""
    M = np.tensordot(weights, transforms, axes=([1], [0]))
    posed = np.einsum("vrc,vc->vr", M[:, :, :3], verts) + M[:, :, 3]
    return posed, np.einsum("vrc,vr->vc", M[:, :, :3], g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lbs_apply_is_the_einsum_bit_for_bit(dtype):
    r = np.random.default_rng(31)
    for V, J in ((568, 19), (7, 3), (1000, 24)):
        w = r.random((V, J))
        w = (w / w.sum(axis=1, keepdims=True)).astype(dtype)
        tf = r.normal(size=(B, J, 3, 4)).astype(dtype)
        x = (r.normal(size=(B, V, 3)) * r.choice([1e-3, 1.0, 1e3])).astype(dtype)
        g = r.normal(size=(B, V, 3)).astype(dtype)
        xt = dc.Tensor(x, requires_grad=True)
        dc.backward(body.lbs_apply(xt, tf, w), g)
        posed = body.lbs_apply(dc.Tensor(x), tf, w).data
        for b in range(B):
            ref, ref_g = _einsum_lbs(w, tf[b], x[b], g[b])
            one = dc.Tensor(x[b].copy(), requires_grad=True)
            out = body.lbs_apply(one, tf[b], w)
            dc.backward(out, g[b].copy())
            assert out.data.tobytes() == ref.tobytes()
            assert one.grad.tobytes() == ref_g.tobytes()
            assert np.ascontiguousarray(posed[b]).tobytes() == ref.tobytes()
            assert np.ascontiguousarray(xt.grad[b]).tobytes() == ref_g.tobytes()


def test_texture_sample_over_a_batch_of_maps():
    r = np.random.default_rng(33)
    tex = r.normal(size=(B, 3, 8, 8))
    uv = r.uniform(0, 1, size=(50, 2))
    g = r.normal(size=(B, 50, 3))
    batch = dc.Tensor(tex, requires_grad=True)
    dc.backward(dc.texture_sample(batch, uv), g)
    for b in range(B):
        one = dc.Tensor(tex[b].copy(), requires_grad=True)
        out = dc.texture_sample(one, uv)
        dc.backward(out, g[b])
        assert (out.data.tobytes()
                == dc.texture_sample(dc.Tensor(tex), uv).data[b].tobytes())
        assert one.grad.tobytes() == batch.grad[b].tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_posing_blends_once_per_step_in_the_model_dtype(dataset, tmp_path,
                                                        monkeypatch, dtype):
    # a step builds the blend matrices once, for all of its frames, from
    # the skinning weights the model cast once: no call casts them again
    calls, steps = [], []
    real_blend, real_step = lbs.blend_matrices, trainer._step

    def blend(weights, transforms):
        if steps:
            calls.append((weights, transforms.shape, transforms.dtype))
        return real_blend(weights, transforms)

    def step(*args):
        steps.append(args[-1])
        try:
            return real_step(*args)
        finally:
            steps.pop()

    monkeypatch.setattr(lbs, "blend_matrices", blend)
    monkeypatch.setattr(trainer, "_step", step)
    model = train(TrainConfig(dataset=str(dataset), out=str(tmp_path / "run"),
                              iters=2, phase1=1, batch=B,
                              model=AvatarConfig(geo_res=16, dtype=dtype))).model
    J = len(model.skeleton.names)
    # a frame's first read in a step poses its ground truth, with the
    # dataset's own weights
    calls = [c for c in calls if c[0] is not model.template.weights]
    assert len(calls) == 2
    for weights, shape, dt in calls:
        assert weights is model._posing.weights
        assert weights.dtype == dt == np.dtype(dtype)
        assert shape == (B, J, 3, 4)


def test_posing_runs_fk_once_over_its_poses(dataset, monkeypatch):
    # one forward_kinematics call poses the whole batch, each time: no
    # pose is looked up from an earlier call
    data, model, ids, signals = _setup(dataset, "float64")
    g = model.config.geo_res
    thetas = np.stack([s.theta for s in signals])
    maps = dc.Tensor(np.zeros((len(signals), 3, g, g)))
    compose = importlib.import_module("dsaa.avatar.compose")
    seen, real = [], compose.forward_kinematics
    monkeypatch.setattr(compose, "forward_kinematics", lambda sk, th:
                        seen.append(th.shape) or real(sk, th))
    first = model._posing(thetas, maps).data
    again = model._posing(thetas, maps).data
    assert seen == [thetas.shape] * 2
    assert first.tobytes() == again.tobytes()


def test_body_lbs_apply_keeps_weights_in_the_vertex_dtype(monkeypatch):
    r = np.random.default_rng(34)
    w = r.random((6, 2)).astype(np.float32)
    tf = r.normal(size=(2, 3, 4))
    seen, real = [], lbs.blend_matrices
    monkeypatch.setattr(lbs, "blend_matrices", lambda weights, t:
                        seen.append(weights) or real(weights, t))
    body.lbs_apply(dc.Tensor(r.normal(size=(6, 3)).astype(np.float32)), tf, w)
    body.lbs_apply(r.normal(size=(6, 3)), tf, w)
    assert seen[0] is w                              # used as it is
    assert seen[1] is not w and seen[1].dtype == np.float64


def test_body_lbs_apply_refuses_mismatched_batches():
    w = np.full((4, 2), 0.5)
    for verts, tf in ((np.zeros(3), np.zeros((2, 3, 4))),
                      (np.zeros((4, 3)), np.zeros((B, 2, 3, 4))),
                      (np.zeros((B, 4, 3)), np.zeros((2, 3, 4))),
                      (np.zeros((B, 4, 3)), np.zeros((B + 1, 2, 3, 4)))):
        with pytest.raises(ValueError, match="must be"):
            body.lbs_apply(verts, tf, w)
