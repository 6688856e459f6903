"""Training learns: after a short phase-1 run, the model's zero-mode
geometry on its train frames sits well below the bare template's, and a
short phase-2 run then lowers their image error.

The other tests pin bytes, gradients, replays and resumes, none of which
notices a run that stops learning while each single-frame byte stays put
(a wrong batch draw, a step size, a term that no longer reaches its
parameters). The geometry error is the mean vertex distance to the
generator's posed truth (`FrameRecord.verts`), averaged over the train
frames; the baseline is the template posed by LBS with no displacement.
The 0.7 fraction was fixed before the first run, with room below it
(pose+face read 0.50 when the test was written)."""

import numpy as np
import pytest

from dsaa import body
from dsaa.harness import TrainConfig, TrainData, render_frame, train, union_l1
from dsaa.synthdata import SceneSpec, generate_dataset, split_dataset

FLOOR = 0.7
PHASE1 = 100
PHASE2 = 20


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("floor")
    spec = SceneSpec(image_size=32, seed=5)
    split_dataset(generate_dataset(spec, root, 10), 0.2, seed=spec.seed)
    return root


def _config(dataset, out, variant, iters):
    return TrainConfig(dataset=str(dataset), out=str(out), iters=iters,
                       phase1=PHASE1, batch=8, seed=1, ablate=variant)


@pytest.fixture(scope="module")
def pose_face(dataset, tmp_path_factory):
    """(model after the phase-1 run of pose+face, its run directory)."""
    out = tmp_path_factory.mktemp("pose_face")
    return train(_config(dataset, out, "pose+face", PHASE1)).model, out


def _data(dataset, model):
    return TrainData(dataset, geo_res=model.config.geo_res,
                     ao_res=model.config.shadow_res)


def _geometry_errors(dataset, model):
    """(model at z = 0, bare template) mean vertex distance over the
    train frames."""
    data = _data(dataset, model)
    ids = data.train_ids()
    posed, _ = model.geometry([data.signal(f, 0) for f in ids])
    tpl, skel = data.template, data.skeleton
    fit, bare = [], []
    for f, got in zip(ids, posed.data):
        fr = data.frame(f)
        rest = body.lbs_apply(tpl.verts, body.forward_kinematics(skel, fr.theta),
                              tpl.weights)
        fit.append(np.linalg.norm(got - fr.verts, axis=1).mean())
        bare.append(np.linalg.norm(rest - fr.verts, axis=1).mean())
    return np.mean(fit), np.mean(bare)


def _image_error(dataset, model):
    """Mean `union_l1` of the train frames' zero-mode renders over every
    camera."""
    data = _data(dataset, model)
    errs = []
    for f in data.train_ids():
        images, masks = render_frame(model, data, f)
        fr = data.frame(f)
        errs += [union_l1(images[k], masks[k], fr.images[k], fr.masks[k])
                 for k in range(images.shape[0])]
    return np.mean(errs)


def test_phase1_lowers_geometry_error_below_the_template(dataset, pose_face):
    fit, bare = _geometry_errors(dataset, pose_face[0])
    assert fit <= FLOOR * bare, (fit, bare)


def test_phase2_lowers_image_error(dataset, pose_face):
    # the phase-1 model is the one the first phase-2 step starts from
    model, out = pose_face
    before = _image_error(dataset, model)
    model = train(_config(dataset, out, "pose+face", PHASE1 + PHASE2),
                  resume=True).model
    after = _image_error(dataset, model)
    assert after < before, (after, before)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 25: the random init of "
                   "the geometry head leaves an offset that z = 0 decodes")
def test_phase1_lowers_latent_models_zero_mode_error(dataset, tmp_path):
    model = train(_config(dataset, tmp_path, "ours", PHASE1)).model
    fit, bare = _geometry_errors(dataset, model)
    assert fit <= FLOOR * bare, (fit, bare)
