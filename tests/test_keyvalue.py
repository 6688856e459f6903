"""The shared `key = value` codec: strict reading, typed fields, round
trips of every config and manifest, and golden texts that pin the
written bytes (the dataset spec lines feed its stored hash); and the one
writer that replaces a file whole."""

import dataclasses
import os
import warnings
from pathlib import Path

import pytest

from dsaa import keyvalue
from dsaa.avatar import AvatarConfig, manifest_text, parse_manifest
from dsaa.harness import (TrainConfig, config_text, load_config, parse_config,
                          parse_data_config)
from dsaa.renderer import LossWeights
from dsaa.synthdata import default_scene, generate_dataset, load_manifest

GOLDEN_AVATAR_MANIFEST = """\
format = dsaa-avatar-2
geo_res = 32
n_face = 4
use_latent = true
use_shadow = true
spatial_local = true
dtype = float32
"""

# a checkpoint written before the architecture sizes, tau and head_joint
# became AvatarConfig constants; its format line refuses it
FORMAT_1_AVATAR_MANIFEST = """\
format = dsaa-avatar-1
d_z = 16
geo_res = 32
tex_res = 64
embed_channels = 8
hidden_signal = 16
enc_channels = 16,32,64,64
width_geo = 32
width_tex = 16
shadow_width = 8
n_face = 4
tau = 0.05
head_joint = head
use_latent = true
use_shadow = true
spatial_local = true
dtype = float32
"""

# the empty dataset and out paths leave a trailing space after "="
GOLDEN_CONFIG = "train.dataset = \ntrain.out = \n" + """\
train.iters = 4000
train.phase1 = 2000
train.batch = 8
train.seed = 0
train.checkpoint_every = 500
train.ablate = ours
model.geo_res = 32
model.n_face = 4
model.use_latent = true
model.use_shadow = true
model.spatial_local = true
model.dtype = float32
loss.lam_kl = 0.001
loss.lam_dis = 0.1
loss.lam_pc = 0.1
"""

GOLDEN_SPEC_LINES = """\
figure = default-v1
spec.pose_range = 0.3,0.4,0.5,1.0,1.0,1.0,1.0,0.8,1.0,0.8,1.0
spec.novel_margin = 1.2
spec.n_face = 4
spec.face_range = 1.0
spec.wrinkle_amp = 0.035
spec.wrinkle_freq = 2.0
spec.phase_span = 1.5707963267948966
spec.stripe_freq = 1.0
spec.stripe_amp = 0.35
spec.face_amp = 0.35
spec.base_albedo = 0.62,0.5,0.42
spec.n_cameras = 4
spec.cam_radius = 2.4
spec.cam_height = 0.3
spec.focal = 62.0
spec.image_size = 64
spec.tex_size = 64
spec.sigma_r = 0.08
spec.gamma_r = 0.05
spec.rho_spurious = 0.0
spec.corr_scalar = 9
spec.seed = 0
"""


def test_golden_avatar_manifest_and_config():
    assert manifest_text(AvatarConfig()) == GOLDEN_AVATAR_MANIFEST
    assert config_text(TrainConfig()) == GOLDEN_CONFIG


def test_config_fields_are_what_a_run_varies():
    names = [f.name for f in dataclasses.fields(AvatarConfig)]
    assert names == ["geo_res", "n_face", "use_latent", "use_shadow",
                     "spatial_local", "dtype"]
    assert [f.name for f in dataclasses.fields(LossWeights)] \
        == ["lam_kl", "lam_dis", "lam_pc"]
    assert "lr" not in [f.name for f in dataclasses.fields(TrainConfig)]
    # the constants still read as attributes, tex_res from geo_res
    cfg = AvatarConfig(geo_res=16)
    assert (cfg.d_z, cfg.tex_res, cfg.shadow_res) == (16, 32, 8)
    assert TrainConfig().lr == 1e-3


def test_int_given_for_float_field_reloads(tmp_path):
    # focal=62 (an int) must be written as 62.0, the value it reloads as,
    # or the stored hash no longer matches the regenerated scene
    m = generate_dataset(default_scene(focal=62), tmp_path / "set", 2)
    lines = (tmp_path / "set" / "manifest.txt").read_text().splitlines(True)
    assert "".join(lines[2:2 + GOLDEN_SPEC_LINES.count("\n")]) \
        == GOLDEN_SPEC_LINES
    assert load_manifest(tmp_path / "set").spec_hash == m.spec_hash
    # the same for a config: lam_kl=1 and lam_kl=1.0 write the same text
    assert config_text(TrainConfig(weights=LossWeights(lam_kl=1))) \
        == config_text(TrainConfig(weights=LossWeights(lam_kl=1.0)))


def test_config_round_trips():
    assert parse_config(config_text(TrainConfig())) == TrainConfig()
    cfg = TrainConfig(dataset="/data/set #2", out="runs/a", iters=7,
                      ablate="no_shadow",
                      model=AvatarConfig(geo_res=16, use_shadow=False,
                                         dtype="float64"),
                      weights=dataclasses.replace(TrainConfig().weights,
                                                  lam_kl=1e-6))
    assert parse_config(config_text(cfg)) == cfg
    assert parse_manifest(manifest_text(cfg.model)) == cfg.model


def test_partial_config_keeps_defaults():
    text = "# a comment line\n\ntrain.iters = 12\nmodel.use_shadow = false\n"
    cfg = parse_config(text)
    assert cfg == TrainConfig(iters=12,
                              model=AvatarConfig(use_shadow=False))


def test_parse_data_config():
    assert parse_data_config("") == ({}, 2200, 200.0 / 2200.0)
    overrides, n_frames, fraction = parse_data_config(
        "data.image_size = 32\ndata.base_albedo = 0.5,0.5,1\n"
        "data.n_frames = 9\ndata.test_fraction = 0.25\n")
    assert overrides == {"image_size": 32, "base_albedo": (0.5, 0.5, 1.0)}
    assert type(overrides["image_size"]) is int
    assert (n_frames, fraction) == (9, 0.25)


@pytest.mark.parametrize("parse, text, match", [
    (parse_config, "train.bogus = 1\n", "unknown config keys"),
    (parse_config, "bogus = 1\n", "unknown config keys"),
    (parse_data_config, "data.figure = x\n", "unknown config keys"),
    (parse_manifest, GOLDEN_AVATAR_MANIFEST + "extra = 1\n",
     "unknown manifest keys"),
    (parse_manifest, GOLDEN_AVATAR_MANIFEST.replace("n_face = 4\n", ""),
     r"manifest missing keys: \['n_face'\]"),
    (parse_manifest, GOLDEN_AVATAR_MANIFEST.replace("format = ", "formt = "),
     "format"),
    (parse_manifest, FORMAT_1_AVATAR_MANIFEST,
     "must declare 'format = dsaa-avatar-2'"),
    (parse_manifest, GOLDEN_AVATAR_MANIFEST.replace("use_shadow = true",
                                                    "use_shadow = yes"),
     "true or false"),
    (parse_config, "train.iters 12\n", "not 'key = value'"),
    (parse_config, "train.iters = 1\ntrain.iters = 2\n", "repeats key"),
])
def test_rejects_bad_text(parse, text, match):
    with pytest.raises(ValueError, match=match):
        parse(text)


def test_read_and_dump_are_inverse():
    items = [("a", "1"), ("b.c", "x y"), ("empty", "")]
    assert keyvalue.read(keyvalue.dump(items)) == dict(items)


def test_load_config_closes_its_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("train.batch = 2\n")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert load_config(path, seed=3).batch == 2
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]


def test_write_atomic_replaces_text_and_bytes_whole(tmp_path):
    path = tmp_path / "x.kv"
    keyvalue.write_atomic(path, "a = 1\n")
    assert path.read_bytes() == b"a = 1\n"
    assert path.stat().st_mode & 0o777 == 0o644
    keyvalue.write_atomic(str(path), b"DSAA1\x00\xff")
    assert path.read_bytes() == b"DSAA1\x00\xff"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("step", ["write", "rename"])
def test_failed_write_atomic_keeps_the_previous_file_and_no_temp(
        tmp_path, monkeypatch, step):
    path = tmp_path / "x.kv"
    path.write_text("a = 1\n")

    def torn(tmp, data):
        with open(tmp, "wb") as f:
            f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    def refused(src, dst):
        raise OSError(13, "Permission denied")

    if step == "write":
        monkeypatch.setattr(Path, "write_bytes", torn)
    else:
        monkeypatch.setattr(os, "replace", refused)
    with pytest.raises(OSError):
        keyvalue.write_atomic(path, "a = 2\n")
    assert path.read_text() == "a = 1\n"
    assert list(tmp_path.iterdir()) == [path]
