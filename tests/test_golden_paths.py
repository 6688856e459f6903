"""Golden digests of the single-frame paths, for a seeded (untrained)
model with every parameter moved off its initial value, on a small
dataset, in float32 and float64: `render_frame`'s images and masks,
`drive`'s renders and drive.kv in zero, sample and 3-step fit mode,
the encoder's moments (the report's input), and the parameter gradients of
one frame through every block. Training runs the same blocks over a
batch; these paths run them at a batch of one and must keep every
byte."""

import hashlib

import numpy as np
import pytest

from dsaa import diffcore as dc
from dsaa import synthdata as sd
from dsaa.avatar import AvatarConfig, AvatarModel, reparameterize
from dsaa.harness import TrainData, evaluate
from dsaa.renderer import losses, rasterize
from dsaa.rng import stream
from dsaa.synthdata import raster_config

RENDER = {
    "float32":
        "4a6f189b740a31c3ad95e366ef89bf73703b9fc8f7961d867bc6612e7707d1fb",
    "float64":
        "ad4c997365e3a76604cdb159e532289b6075b6088149fc83b74d6681e81f25c1",
}

DRIVE = {
    ("float32", "zero"):
        "319d27956e8aa31af67293b2a64ccfe16edd7ce07c69bfe55973663d9e877be2",
    ("float32", "sample"):
        "a83c8f62694f8aba0421c912b7f4dbf2d71c70d71b9dc91c87a950a1f10ecb4d",
    ("float32", "fit"):
        "f919f28eedc57aaf98cf034d6c21956b5ac5a52f67aaac2cc338f9140f453465",
    ("float64", "zero"):
        "a8fd322f3e436108946d6ae0d127f079e400473181c4c81d83c556d156a57e43",
    ("float64", "sample"):
        "59ea2b698861d621e71c808ad62a035678178bcfe1f677325a9fbfd413f9373d",
    ("float64", "fit"):
        "0023df1d5166995ef3038fd0241eae5622a92214550e67273870b180d831c8ab",
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    sd.generate_dataset(sd.default_scene(image_size=32, seed=5), root, 2)
    return root


def _model(dataset, dtype):
    config = AvatarConfig(geo_res=16, dtype=dtype)
    data = TrainData(dataset, geo_res=config.geo_res, ao_res=config.shadow_res)
    model = AvatarModel(data.template, data.skeleton, config, seed=7)
    # every parameter moved off its initial value, the zero biases too
    noise = stream(7, "golden-params")
    for _, t in model.store.items():
        t.data += (0.05 * noise.standard_normal(t.shape)).astype(t.dtype)
    return data, model


@pytest.mark.parametrize("dtype", sorted(RENDER))
def test_render_frame_bytes(dataset, dtype):
    data, model = _model(dataset, dtype)
    z = stream(7, "golden-z").standard_normal(model.config.d_z)
    h = hashlib.sha256()
    for fid in data.ids():
        images, masks = evaluate.render_frame(model, data, fid, z)
        h.update(images.tobytes())
        h.update(masks.tobytes())
    assert h.hexdigest() == RENDER[dtype]


@pytest.mark.parametrize("dtype,mode", sorted(DRIVE))
def test_drive_output_bytes(dataset, tmp_path, dtype, mode):
    data, model = _model(dataset, dtype)
    out = tmp_path / "drive"
    evaluate.drive(model, data, data.ids(), mode=mode, out_dir=out, seed=3,
                   steps=3)
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == DRIVE[dtype, mode]


ENCODE = {
    "float32":
        "a156eb22c4d156f414720fd431850811750a954cf5f33208118b03ca786d4550",
    "float64":
        "e53d65ec56012f66dd176b37830519f058516c5a13581a67c6186540317c1d6f",
}

GRADS = {
    "float32":
        "a763bff5dd6c397b3b0955f6c222bf712ffa2bc9711e4a8a9b7857a0d73d95a0",
    "float64":
        "0a62182e490c9533da91f24ba7f9020cb499c4f8f86e6299e71c629f4ff57776",
}


@pytest.mark.parametrize("dtype", sorted(ENCODE))
def test_encode_bytes(dataset, dtype):
    # the report's probe and HSIC entries read these moments, each frame
    # encoded as a batch of one
    data, model = _model(dataset, dtype)
    h = hashlib.sha256()
    for fid in data.ids():
        dist = model.encoder(data.pos_map(fid)[None])
        h.update(dist.mu.data[0].tobytes())
        h.update(dist.sigma.data[0].tobytes())
    assert h.hexdigest() == ENCODE[dtype]


@pytest.mark.parametrize("dtype", sorted(GRADS))
def test_single_frame_gradient_bytes(dataset, dtype):
    # one frame through every block, forward and backward, at batch 1
    data, model = _model(dataset, dtype)
    fid = data.ids()[0]
    fr = data.frame(fid)
    eps = stream(7, "golden-eps").standard_normal((1, model.config.d_z))
    z = reparameterize(model.encoder(data.pos_map(fid)[None]), eps)
    sig = data.signal(fid, 1)
    posed, trunk = model.geometry([sig], z)
    gain = dc.getitem(model.shadow(data.ao(fid)[None]), 0)
    final = model.appearance(trunk, [sig.view], gain)[0]
    render = rasterize(dc.getitem(posed, 0), data.template.faces,
                       data.template.uvs, final, data.cameras[1],
                       raster_config(data.spec))
    total, _ = losses(render, fr.images[1], fr.masks[1])
    dc.backward(total)
    h = hashlib.sha256(total.data.tobytes())
    for name, t in model.store.items():
        h.update(name.encode())
        h.update(t.grad.tobytes())
    assert h.hexdigest() == GRADS[dtype]
