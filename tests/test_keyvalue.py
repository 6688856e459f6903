"""The shared `key = value` codec: strict reading, typed fields, round
trips of every config and manifest, and golden texts that pin the
written bytes (the dataset spec lines feed its stored hash); and the one
writer that replaces a file whole."""

import dataclasses
import math
import os
import warnings
from pathlib import Path

import pytest

from dsaa import keyvalue
from dsaa.avatar import AvatarConfig, manifest_text, parse_manifest
from dsaa.harness import (VARIANTS, LossWeights, TrainConfig, cli,
                          config_text, parse_config, parse_data_config)
from dsaa.harness.config import data_keys
from dsaa.synthdata import SceneSpec, generate_dataset, load_manifest

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
model.dtype = float32
"""

GOLDEN_SPEC_LINES = """\
spec.n_face = 4
spec.n_cameras = 4
spec.image_size = 64
spec.rho_spurious = 0.0
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
    assert [f.name for f in dataclasses.fields(TrainConfig)][-2:] \
        == ["ablate", "model"]
    assert "lr" not in [f.name for f in dataclasses.fields(TrainConfig)]
    # the constants still read as attributes, tex_res from geo_res
    cfg = AvatarConfig(geo_res=16)
    assert (cfg.d_z, cfg.tex_res, cfg.shadow_res) == (16, 32, 8)
    assert TrainConfig().lr == 1e-3


def test_int_given_for_float_field_reloads(tmp_path):
    # rho_spurious=0 (an int) must be written as 0.0, the value it reloads
    # as, or the stored hash no longer matches the regenerated scene
    m = generate_dataset(SceneSpec(rho_spurious=0), tmp_path / "set", 2)
    lines = (tmp_path / "set" / "manifest.txt").read_text().splitlines(True)
    assert "".join(lines[2:2 + GOLDEN_SPEC_LINES.count("\n")]) \
        == GOLDEN_SPEC_LINES
    assert load_manifest(tmp_path / "set").spec_hash == m.spec_hash


def test_config_round_trips():
    assert parse_config(config_text(TrainConfig())) == TrainConfig()
    cfg = TrainConfig(dataset="/data/set #2", out="runs/a", iters=7,
                      ablate="no_shadow",
                      model=AvatarConfig(geo_res=16, dtype="float64"))
    assert parse_config(config_text(cfg)) == cfg
    assert not cfg.model.use_shadow
    assert parse_manifest(manifest_text(cfg.model)) == cfg.model


def test_partial_config_keeps_defaults():
    text = "# a comment line\n\ntrain.iters = 12\nmodel.geo_res = 16\n"
    cfg = parse_config(text)
    assert cfg == TrainConfig(iters=12, model=AvatarConfig(geo_res=16))


# each report variant written out: its label, (use_latent, use_shadow,
# spatial_local) and (lam_kl, lam_dis, lam_pc)
_VARIANTS = {
    "ours": ("OURS", (True, True, True), (1e-3, 0.1, 0.1)),
    "pose+face": ("pose+face", (False, True, True), (0.0, 0.0, 0.0)),
    "pose+face+latent": ("pose+face+latent", (True, True, True),
                         (1e-6, 0.0, 0.0)),
    "no_disent": ("OURS (no disent.)", (True, True, True), (1e-3, 0.0, 0.0)),
    "no_spatial_local": ("OURS (no spat. local.)", (True, True, False),
                         (1e-3, 0.1, 0.1)),
    "no_shadow": ("OURS (no shadow)", (True, False, True), (1e-3, 0.1, 0.1)),
}


def test_variants_keep_their_names_order_and_labels():
    assert [(v, spec.label) for v, spec in VARIANTS.items()] \
        == [(v, label) for v, (label, _, _) in _VARIANTS.items()]


@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_variant_is_folded_in_when_the_config_is_built(variant):
    _, (latent, shadow, local), (kl, dis, pc) = _VARIANTS[variant]
    explicit = TrainConfig(
        ablate=variant,
        model=AvatarConfig(use_latent=latent, use_shadow=shadow,
                           spatial_local=local))
    assert TrainConfig(ablate=variant) == explicit
    assert explicit.weights == LossWeights(lam_kl=kl, lam_dis=dis, lam_pc=pc)
    # folding a folded config in again changes nothing
    assert parse_config(config_text(explicit)) == explicit
    assert dataclasses.replace(explicit, iters=5).model == explicit.model


@pytest.mark.parametrize("variant, switches", [
    ("ours", {"use_shadow": False}),
    ("no_shadow", {"use_latent": False}),
    ("no_shadow", {"use_shadow": False, "spatial_local": False})])
def test_config_refuses_switches_its_variant_does_not_set(variant, switches):
    # a model carries the default switches or its variant's, so no
    # switch is ever overwritten unseen
    with pytest.raises(ValueError, match=f"variant {variant} sets the model "
                                         "switches; the model given has"):
        TrainConfig(ablate=variant, model=AvatarConfig(**switches))


def test_variant_weights_are_finite_and_a_latent_free_variant_has_none():
    latent_free = []
    for variant in VARIANTS:
        cfg = TrainConfig(ablate=variant)
        values = [getattr(cfg.weights, f.name)
                  for f in dataclasses.fields(LossWeights)]
        assert all(math.isfinite(v) and v >= 0.0 for v in values), variant
        if not cfg.model.use_latent:
            assert values == [0.0, 0.0, 0.0], variant
            latent_free.append(variant)
    assert latent_free == ["pose+face"]


def test_override_picks_the_variant_before_it_is_folded_in(tmp_path):
    # --ablate ours over a pose+face file trains a latent model with the
    # default weights: the file's variant is never folded in
    path = tmp_path / "train.cfg"
    path.write_text("train.ablate = pose+face\n")
    assert not parse_config(path.read_text()).model.use_latent
    cfg = parse_config(path.read_text(), ablate="ours")
    assert cfg.model.use_latent
    assert cfg.weights == LossWeights()
    assert cfg == TrainConfig()


def test_parse_data_config():
    assert parse_data_config("") == ({}, 2200, 200.0 / 2200.0)
    overrides, n_frames, fraction = parse_data_config(
        "data.image_size = 32\ndata.rho_spurious = 1\n"
        "data.n_frames = 9\ndata.test_fraction = 0.25\n")
    assert overrides == {"image_size": 32, "rho_spurious": 1.0}
    assert type(overrides["image_size"]) is int
    assert type(overrides["rho_spurious"]) is float
    assert (n_frames, fraction) == (9, 0.25)


def test_data_config_keys_are_what_a_dataset_varies():
    keys = ["data.n_face", "data.n_cameras", "data.image_size",
            "data.rho_spurious", "data.seed", "data.n_frames",
            "data.test_fraction"]
    assert data_keys() == keys
    overrides, _, _ = parse_data_config("".join(f"{k} = 1\n" for k in keys))
    assert sorted(overrides) == sorted(k[len("data."):] for k in keys[:5])


def test_field_without_a_text_form_raises():
    # a field the codec cannot write must not drop out of hashed text
    @dataclasses.dataclass
    class WithTuple:
        n: int = 1
        pair: tuple = (1, 2)

    @dataclasses.dataclass
    class NoDefault:
        n: int

    for cls in (WithTuple, NoDefault):
        with pytest.raises(TypeError, match="has no text form"):
            keyvalue.field_items(cls(n=1))
        with pytest.raises(TypeError, match="has no text form"):
            keyvalue.take_fields(cls, {})


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


def test_train_command_reads_its_config_file_and_closes_it(tmp_path,
                                                           monkeypatch):
    path = tmp_path / "train.cfg"
    path.write_text("train.batch = 2\n")
    configs = []
    monkeypatch.setattr(cli, "train", lambda config, **_: configs.append(config))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert cli.main(["train", "--config", str(path), "--seed", "3"]) == 0
    assert configs[0].batch == 2 and configs[0].seed == 3
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
