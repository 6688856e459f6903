"""Each harness caller runs only the model part its output reads,
through `AvatarModel.geometry`, `shadow_gain` and `appearance`: a
phase-1 step poses geometry alone, the perturbation term reads only
`displacement` at the joint anchors and poses nothing, a phase-2 step
shades each frame's trunk for its one camera, and the evaluators
decode a frame's geometry, shadow gain, texture upsample and tex1 conv
over it once for all of its cameras. A training step runs the
geometry half (encoder, projectors, decoder trunk, posing, shadow net)
once over the minibatch and the texture branch and rasterizer per
frame.
No harness path calls `forward`; each is checked against the full
per-frame `forward` it stands for. A phase-2 step builds one tape node
per conv and linear layer, with no separate activation node and no
padded copy."""

import gc
from collections import Counter

import numpy as np
import pytest

from dsaa import body, diffcore as dc
from dsaa import synthdata as sd
from dsaa.avatar import (AvatarConfig, AvatarDecoder, AvatarModel,
                         GeometryEncoder, LatentDistribution, ShadowNet,
                         compose)
from dsaa.harness import TrainConfig, TrainData, evaluate, train, trainer
from dsaa.renderer import RasterConfig, losses, rasterize
from dsaa.rng import stream

SMALL = AvatarConfig(geo_res=16)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("geometry")
    sd.generate_dataset(sd.default_scene(image_size=32, seed=3), root, 2)
    return root


def _train_two_steps(dataset, out):
    """One phase-1 step, then one phase-2 step, at batch 2."""
    return train(TrainConfig(dataset=str(dataset), out=str(out), iters=2,
                             phase1=1, batch=2, model=SMALL))


def _data_and_model(dataset, **kw):
    cfg = AvatarConfig(geo_res=16, **kw)
    data = TrainData(dataset, geo_res=cfg.geo_res, ao_res=cfg.shadow_res)
    return data, AvatarModel(data.template, data.skeleton, cfg, seed=2)


def _per_camera(model, data, frame_id, z):
    """The full model per camera, as the evaluators once ran it."""
    cfg = RasterConfig(sigma_r=data.spec.sigma_r, gamma=data.spec.gamma_r)
    ao = data.ao(frame_id) if model.config.use_shadow else None
    for k, camera in enumerate(data.cameras):
        pred = model.forward(data.signal(frame_id, k), z, ao)
        yield rasterize(pred.posed, data.template.faces, data.template.uvs,
                        pred.final, camera, cfg)


def test_phase1_step_reads_no_texture_shadow_or_ao(dataset, tmp_path,
                                                   monkeypatch):
    calls = Counter()
    phase = []
    real_step = trainer._step

    def step(cfg, *args):
        phase.append(1 if args[-1] < cfg.phase1 else 2)
        try:
            return real_step(cfg, *args)
        finally:
            phase.pop()

    def count(owner, attr):
        orig = getattr(owner, attr)

        def counted(*args, **kwargs):
            if phase:
                calls[phase[-1], f"{owner.__name__}.{attr}"] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    monkeypatch.setattr(trainer, "_step", step)
    count(AvatarDecoder, "texture")
    count(ShadowNet, "__call__")
    count(TrainData, "ao")
    count(AvatarModel, "forward")
    count(AvatarModel, "geometry")
    count(AvatarModel, "displacement")
    _train_two_steps(dataset, tmp_path / "run")
    names = ("AvatarDecoder.texture", "ShadowNet.__call__", "TrainData.ao",
             "AvatarModel.forward", "AvatarModel.geometry",
             "AvatarModel.displacement")
    # one geometry call for the batch; phase 2 adds one shadow-net call
    # and one displacement call (the prior samples) for the batch, and
    # the texture branch and an AO read per frame
    assert [calls[1, n] for n in names] == [0, 0, 0, 0, 1, 0]
    assert [calls[2, n] for n in names] == [2, 1, 2, 0, 1, 1]


def test_phase1_step_runs_the_latent_branch_on_a_tile(dataset, tmp_path,
                                                     monkeypatch):
    # up1 and up2 read z tiled 3x3 and the trunk's latent share runs at
    # 12x12, each layer once over the batch of 2; no conv at geo_res reads
    # the latent and the embeddings at once
    calls = Counter()
    phase = []
    real_step, real_deconv, real_conv = (trainer._step, dc.conv_transpose2d,
                                         dc.conv2d)

    def step(cfg, *args):
        phase.append(1 if args[-1] < cfg.phase1 else 2)
        try:
            return real_step(cfg, *args)
        finally:
            phase.pop()

    def deconv(x, w, *args, **kwargs):
        if phase == [1]:
            calls["conv_transpose2d", x.shape, w.shape] += 1
        return real_deconv(x, w, *args, **kwargs)

    def conv(x, w, *args, **kwargs):
        if phase == [1]:
            calls["conv2d", x.shape, w.shape] += 1
        return real_conv(x, w, *args, **kwargs)

    monkeypatch.setattr(trainer, "_step", step)
    monkeypatch.setattr(dc, "conv_transpose2d", deconv)
    monkeypatch.setattr(dc, "conv2d", conv)
    _train_two_steps(dataset, tmp_path / "run")
    dz, wg, ec, gr = SMALL.d_z, SMALL.width_geo, SMALL.embed_channels, SMALL.geo_res
    decoder = {
        ("conv_transpose2d", (2, dz, 3, 3), (dz, wg, 4, 4)): 1,
        ("conv_transpose2d", (2, wg, 6, 6), (wg, wg, 4, 4)): 1,
        ("conv2d", (2, wg, 12, 12), (wg, wg, 3, 3)): 1,
        ("conv2d", (2, 2 * ec, gr, gr), (wg, 2 * ec, 3, 3)): 1,
        ("conv2d", (2, wg, gr, gr), (3, wg, 1, 1)): 1,
    }
    assert {k: calls[k] for k in decoder} == decoder
    assert not [k for k in calls if k[0] == "conv2d" and k[1][1:] == (wg + 2 * ec, gr, gr)]


def test_phase2_step_matches_per_frame_forward(dataset, tmp_path,
                                               monkeypatch):
    # the oracle runs each frame of the step through one `forward` call
    # and the encoder and the perturbation term's decoder per frame:
    # `geometry` hands forward's final textures on in the trunk's place,
    # and `appearance` takes a frame's back out. The step sums each
    # parameter's gradient over the batch in one product, so the two
    # agree to the dtype's rounding
    for dtype, tol in (("float32", 1e-5), ("float64", 1e-12)):
        with monkeypatch.context() as m:
            _check_step_against_forward(dataset, tmp_path / dtype, m,
                                        AvatarConfig(geo_res=16, dtype=dtype),
                                        tol)


def _check_step_against_forward(dataset, tmp_path, monkeypatch, model_cfg,
                                tol):
    def step_result(out):
        grads = []
        real_adam_step = dc.Adam.step

        def adam_step(opt):
            if not grads:       # the model's optimizer steps before the critic's
                grads.append({name: None if t.grad is None else t.grad.copy()
                              for name, t in opt.params.items()})
            return real_adam_step(opt)

        with monkeypatch.context() as m:
            m.setattr(dc.Adam, "step", adam_step)
            rec, = train(TrainConfig(dataset=str(dataset), out=str(out),
                                     iters=1, phase1=0, batch=2,
                                     model=model_cfg)).history
        return rec, grads[0]

    ref_rec, ref_grads = step_result(tmp_path / "run")
    frames = []
    real_signal = TrainData.signal
    real_encoder, real_displacement = (GeometryEncoder.__call__,
                                       AvatarModel.displacement)

    def signal(data, frame_id, cam):
        frames.append((data, frame_id))
        return real_signal(data, frame_id, cam)

    def encoder(enc, pos_maps):
        dists = [real_encoder(enc, p[None]) for p in pos_maps]
        return LatentDistribution(dc.concat([d.mu for d in dists], axis=0),
                                  dc.concat([d.sigma for d in dists], axis=0))

    def geometry(model, signals, z):
        assert len(frames) == len(signals)
        preds = [model.forward(sig, dc.getitem(z, b), data.ao(frame_id))
                 for b, (sig, (data, frame_id)) in enumerate(zip(signals, frames))]
        frames.clear()
        return (dc.stack([p.posed for p in preds]),
                dc.stack([p.final for p in preds]))

    def displacement(model, signals, z):
        return dc.concat([real_displacement(model, [sig], zb[None])
                          for sig, zb in zip(signals, z)], axis=0)

    monkeypatch.setattr(TrainData, "signal", signal)
    monkeypatch.setattr(GeometryEncoder, "__call__", encoder)
    monkeypatch.setattr(AvatarModel, "geometry", geometry)
    monkeypatch.setattr(AvatarModel, "displacement", displacement)
    monkeypatch.setattr(AvatarModel, "appearance",
                        lambda model, final, views, gain:
                        [dc.reshape(final, final.shape[1:])])
    rec, grads = step_result(tmp_path / "oracle")
    assert not frames
    assert ref_rec["phase"] == 2 and "img" in ref_rec and "pc" in ref_rec
    assert rec.keys() == ref_rec.keys()
    for k, v in ref_rec.items():
        assert abs(rec[k] - v) <= tol * abs(v), k
    assert grads.keys() == ref_grads.keys()
    assert any(g is not None for g in ref_grads.values())
    for name, ref in ref_grads.items():
        if ref is None:
            assert grads[name] is None, name
            continue
        err = np.linalg.norm(grads[name] - ref)
        assert err <= tol * np.linalg.norm(ref), name


def _tape(loss):
    """Every node the tape walks from `loss`: the operands that need a
    gradient, transitively, the leaves included."""
    seen, todo, nodes = set(), [loss], []
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            todo.extend(x for x, need in zip(t._operands, t._needs) if need)
    return nodes


def test_phase2_step_builds_one_node_per_layer(dataset, tmp_path,
                                                monkeypatch):
    ops, pads, phase = Counter(), [0], []
    real_step, real_backward, real_pad = trainer._step, dc.backward, np.pad

    def step(cfg, *args):
        phase.append(1 if args[-1] < cfg.phase1 else 2)
        try:
            return real_step(cfg, *args)
        finally:
            phase.pop()

    def backward(loss, *args):
        # count each tape of the step from its loss
        if phase == [2]:
            ops.update(t.name for t in _tape(loss))
        return real_backward(loss, *args)

    def pad(*args, **kwargs):
        pads[0] += phase == [2]
        return real_pad(*args, **kwargs)

    monkeypatch.setattr(trainer, "_step", step)
    monkeypatch.setattr(dc, "backward", backward)
    monkeypatch.setattr(np, "pad", pad)
    _train_two_steps(dataset, tmp_path / "run")
    assert ops["conv2d"] and ops["conv_transpose2d"] and ops["linear"]
    assert ops["leaky_relu"] == ops["sigmoid"] == 0
    assert pads[0] == 0
    # one skinning node for the batch; the perturbation term poses nothing
    assert ops["lbs_apply"] == 1


def test_steps_hold_one_laplacian_node(dataset, tmp_path, monkeypatch):
    # the Laplacian term is one tape node for the batch in both phases,
    # and no gather by an index array (the old term's neighbor gather) is
    # left
    ops, gathers, phase = Counter(), [], []
    real_step, real_backward, real_getitem = (trainer._step, dc.backward,
                                              dc.getitem)

    def step(cfg, *args):
        phase.append(1 if args[-1] < cfg.phase1 else 2)
        try:
            return real_step(cfg, *args)
        finally:
            phase.pop()

    def getitem(a, idx):
        out = real_getitem(a, idx)
        if not dc.ops._is_basic_index(idx):
            gathers.append(out)        # held, so ids stay unique
        return out

    def backward(loss, *args):
        if phase:
            tape = _tape(loss)
            ops.update((phase[-1], t.name) for t in tape)
            ops.update((phase[-1], "array getitem") for t in tape
                       if any(t is g for g in gathers))
        return real_backward(loss, *args)

    monkeypatch.setattr(trainer, "_step", step)
    monkeypatch.setattr(dc, "backward", backward)
    monkeypatch.setattr(dc, "getitem", getitem)
    _train_two_steps(dataset, tmp_path / "run")
    for ph in (1, 2):
        assert ops[ph, "laplacian"] == 1, ph          # batch 2
        assert ops[ph, "array getitem"] == 0, ph
    assert ops[2, "getitem"] > 0      # the critic's batch rotation slices


def test_steps_run_the_geometry_half_once_per_batch(tmp_path_factory,
                                                    monkeypatch):
    # at batch 4 each encoder, projector, decoder-trunk and shadow-net
    # parameter is read by one tape node per step, not one per frame (the
    # trunk weight by its two slices; in phase 2 the projectors and the
    # trunk a second time, for the prior samples); the texture branch and
    # the rasterizer still run once per frame
    root = tmp_path_factory.mktemp("batch4")
    sd.generate_dataset(sd.default_scene(image_size=32, seed=4), root, 4)
    readers, phase = {}, []
    real_step, real_backward = trainer._step, dc.backward

    def step(cfg, *args):
        phase.append(1 if args[-1] < cfg.phase1 else 2)
        try:
            return real_step(cfg, *args)
        finally:
            phase.pop()

    def backward(loss, *args):
        if len(phase) == 1 and phase[0] not in readers:
            nodes = _tape(loss)
            count = Counter(id(x) for t in nodes for x in t._operands)
            count["rasterize"] = sum(t.name == "rasterize" for t in nodes)
            readers[phase[0]] = count
        return real_backward(loss, *args)

    monkeypatch.setattr(trainer, "_step", step)
    monkeypatch.setattr(dc, "backward", backward)
    model = train(TrainConfig(dataset=str(root), out=str(tmp_path_factory.mktemp("run4")),
                              iters=2, phase1=1, batch=4, model=SMALL)).model
    geometry = [(name, t) for name, t in model.store.items()
                if name.split("/")[0] in ("enc", "cond", "shadow")
                or name.split("/")[1] in ("up1", "up2", "trunk", "geo")]
    assert len(geometry) == 36
    for name, t in geometry:
        twice = 2 if name == "dec/trunk/w" else 1
        if not name.startswith("shadow/"):
            assert readers[1][id(t)] == twice, name
        again = name.startswith("cond/") or name.startswith("dec/")
        assert readers[2][id(t)] == twice * (2 if again else 1), name
    texture = {"dec/texup/w": 4, "dec/texup/b": 4, "dec/tex1/w": 8,
               "dec/tex1/b": 4, "dec/tex2/w": 4, "dec/tex2/b": 4}
    params = dict(model.store.items())
    assert {k: readers[2][id(params[k])] for k in texture} == texture
    assert all(readers[1][id(params[k])] == 0 for k in texture)
    assert readers[1]["rasterize"] == 0 and readers[2]["rasterize"] == 4


def test_ground_truth_laplacian_is_cached_per_frame_and_dtype(dataset):
    data = TrainData(dataset, geo_res=16)
    fid = data.train_ids()[0]
    seen = {}
    for dtype in ("float32", "float64"):
        model = AvatarModel(data.template, data.skeleton,
                            AvatarConfig(geo_res=16, dtype=dtype), seed=2)
        posed, _ = model.geometry([data.signal(fid, 0)])
        lap = data.laplacian(fid, posed.dtype)
        ref = body.mesh_laplacian(data.template,
                                  data.frame(fid).verts.astype(dtype))
        assert lap.dtype == posed.dtype == np.dtype(dtype)
        assert lap.tobytes() == ref.tobytes()
        assert not lap.flags.writeable
        seen[dtype] = lap
    # each model keeps reading its own array, computed once
    for dtype, lap in seen.items():
        assert data.laplacian(fid, dtype) is lap


def test_phase2_backward_leaves_gradients_on_leaves_only(dataset, tmp_path,
                                                        monkeypatch):
    # after each backward of a phase-2 step (the model's loss, then the
    # critic's) only parameters hold a gradient; every node an op made
    # gave its gradient up once it was routed
    held, real_step, real_backward = [], trainer._step, dc.backward
    phase = []

    def step(cfg, *args):
        phase.append(1 if args[-1] < cfg.phase1 else 2)
        try:
            return real_step(cfg, *args)
        finally:
            phase.pop()

    def backward(loss, *args):
        real_backward(loss, *args)
        if phase == [2]:
            nodes = _tape(loss)
            held.append(([t.name for t in nodes
                          if t._backward is not None and t.grad is not None],
                         sum(t._backward is None and t.grad is not None
                             for t in nodes)))

    monkeypatch.setattr(trainer, "_step", step)
    monkeypatch.setattr(dc, "backward", backward)
    _train_two_steps(dataset, tmp_path / "run")
    assert len(held) == 2
    for intermediates, leaves in held:
        assert intermediates == [] and leaves > 0


def test_training_steps_leave_no_cyclic_garbage(dataset, tmp_path,
                                                 monkeypatch):
    # the trainer holds the cyclic collector off over its loop; that is
    # safe because a step's graphs (model and critic) hold no reference
    # cycle, so refcounting alone frees every step's garbage
    found, real_step = [], trainer._step

    def step(*args):
        assert not gc.isenabled()
        gc.collect()
        rec = real_step(*args)
        found.append(gc.collect())
        return rec

    monkeypatch.setattr(trainer, "_step", step)
    assert gc.isenabled()
    _train_two_steps(dataset, tmp_path / "run")
    assert gc.isenabled()
    assert found == [0, 0]


def test_perturbation_term_matches_full_decode(dataset, tmp_path,
                                               monkeypatch):
    # the term squares each prior sample's corrective at the joint
    # anchors; the oracle poses the full decode and subtracts the
    # pose-only anchor positions, the two agreeing because every anchor
    # is bound to one joint alone
    seen = []
    real, real_displacement = trainer.perturbation_loss, AvatarModel.displacement
    monkeypatch.setattr(trainer, "perturbation_loss",
                        lambda *args: seen.append(args) or real(*args))
    monkeypatch.setattr(AvatarModel, "displacement", lambda model, *args:
                        seen.append(args) or real_displacement(model, *args))
    for dtype, tol in (("float32", 1e-5), ("float64", 1e-12)):
        seen.clear()
        model = train(TrainConfig(dataset=str(dataset),
                                  out=str(tmp_path / dtype), iters=2,
                                  phase1=1, batch=2,
                                  model=AvatarConfig(geo_res=16,
                                                     dtype=dtype))).model
        (signals, z_samples), (_, anchors) = seen
        tpl, skel = model.template, model.skeleton
        rows = np.argmax(tpl.weights, axis=0)
        # the run samples the anchors at the UVs of each joint's most
        # strongly bound vertex
        want = tpl.uvs[rows]
        assert (anchors.dtype == want.dtype and anchors.shape == want.shape
                and anchors.tobytes() == want.tobytes())

        def oracle():
            # decode + compose with a unit gain, texture decoded and unread
            r = model.config.shadow_res
            ones = dc.Tensor(np.ones((1, r, r), dtype=model.config.np_dtype))
            total = None
            for sig, z in zip(signals, z_samples):
                disp, tex = model.decode(sig, z)
                posed = compose(sig.theta, disp, tex, ones, tpl, skel).posed
                target = body.lbs_apply(
                    tpl.verts[rows], body.forward_kinematics(skel, sig.theta),
                    tpl.weights[rows])
                d = dc.sub(dc.getitem(posed, list(rows)),
                           target.astype(posed.dtype))
                term = dc.sum_(dc.mul(d, d))
                total = term if total is None else dc.add(total, term)
            return dc.mul(total, 1.0 / len(signals))

        results = []
        for fn in (lambda: real(real_displacement(model, signals, z_samples),
                                anchors), oracle):
            model.store.zero_grad()
            term = fn()
            dc.backward(term)
            results.append((float(term.data),
                            {name: t.grad.copy() for name, t
                             in model.store.items() if t.grad is not None}))
        model.store.zero_grad()
        (value, grads), (ref_value, ref_grads) = results
        assert ref_value > 0 and abs(value - ref_value) <= tol * ref_value
        assert ref_grads and grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            err = np.linalg.norm(grads[name] - ref)
            assert err <= tol * np.linalg.norm(ref), (dtype, name)


@pytest.mark.parametrize("use_shadow", [True, False])
def test_render_frame_matches_per_camera_forward(dataset, use_shadow):
    data, model = _data_and_model(dataset, use_shadow=use_shadow)
    fid = data.ids()[0]
    z = stream(2, "z").standard_normal(model.config.d_z)
    images, masks = evaluate.render_frame(model, data, fid, z)
    with dc.no_grad():
        renders = list(_per_camera(model, data, fid, z))
    assert len(renders) == len(images) == len(data.cameras)
    for k, rt in enumerate(renders):
        assert images[k].tobytes() == rt.image.data.tobytes()
        assert masks[k].tobytes() == rt.mask.data.tobytes()


def test_frame_cameras_share_one_texture_upsample(dataset, monkeypatch):
    # the texture branch's 2x upsample and tex1's 3x3 conv over it read
    # the trunk alone, so a frame runs them once per decoded geometry,
    # not once per camera
    data, model = _data_and_model(dataset)
    fid = data.ids()[0]
    calls = Counter()
    real_geometry, real_deconv, real_conv = (AvatarModel.geometry,
                                             dc.conv_transpose2d, dc.conv2d)

    def geometry(*args, **kwargs):
        calls["geometry"] += 1
        return real_geometry(*args, **kwargs)

    def deconv(x, w, *args, **kwargs):
        calls["texup"] += w is model.decoder.w_texup
        return real_deconv(x, w, *args, **kwargs)

    def conv(x, w, *args, **kwargs):
        # 3x3 convs at the texture resolution
        calls["tex1"] += x.shape[2] == model.config.tex_res and w.shape[2] == 3
        return real_conv(x, w, *args, **kwargs)

    monkeypatch.setattr(AvatarModel, "geometry", geometry)
    monkeypatch.setattr(dc, "conv_transpose2d", deconv)
    monkeypatch.setattr(dc, "conv2d", conv)
    images, _ = evaluate.render_frame(model, data, fid)
    assert len(images) == len(data.cameras) > 1
    assert calls == {"geometry": 1, "texup": 1, "tex1": 1}
    calls.clear()
    evaluate.drive(model, data, [fid], mode="fit", steps=1)
    assert calls == {"geometry": 2, "texup": 2, "tex1": 2}


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-12)])
def test_camera_renders_z_gradient_matches_per_camera_forward(dataset, dtype,
                                                              tol):
    # the shared geometry and the shared texture upsample sum the
    # cameras' z-gradients in another order, so only rounding may differ
    data, model = _data_and_model(dataset, dtype=dtype)
    fid = data.ids()[0]
    fr = data.frame(fid)
    z0 = 0.5 * stream(2, "z").standard_normal(model.config.d_z)

    def z_grad(renders, shape):
        z = dc.Tensor(z0.astype(model.config.np_dtype).reshape(shape),
                      requires_grad=True)
        total = None
        for k, rt in enumerate(renders(model, data, fid, z)):
            part, _ = losses(rt, fr.images[k], fr.masks[k])
            total = part if total is None else dc.add(total, part)
        dc.backward(total)
        return z.grad.reshape(-1)

    g = z_grad(evaluate._camera_renders, (1, -1))     # a batch of one
    ref = z_grad(_per_camera, (-1,))
    scale = np.abs(ref).max()
    assert scale > 0.0
    assert np.abs(g - ref).max() <= tol * scale
