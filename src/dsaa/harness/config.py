"""Experiment configuration: text format, training options, ablations.

Config files are line-oriented ``section.key = value`` with whole-line
``#`` comments (see dsaa.keyvalue); keys not given keep their defaults.
The ablation presets give the report table's variants exact
definitions:

    ours              full model
    pose+face         no latent code (and therefore no KL/MINE/consistency)
    pose+face+latent  latent kept, lam_kl -> 1e-6, adversary and
                      consistency off (an effectively unregularized code)
    no_disent         adversary and consistency off, standard KL
    no_spatial_local  influence masks replaced by all-ones channels
    no_shadow         gain branch pinned at 1

The named variants only touch flags and loss weights; architecture
sizes stay identical so parameter counts are comparable.

A key exists only if a run varies it: code outside the tests sets it
(model.geo_res, train.*, data.image_size, data.n_cameras, data.seed,
data.n_frames, data.test_fraction), an ablation does (model.use_*,
spatial_local, loss.*), it must match the dataset (n_face, in model.*
and data.*) or tests use its second value (dtype, data.rho_spurious).
The rest are constants: `AvatarConfig`'s sizes, the image and mesh
weights in `dsaa.renderer.losses`, `TrainConfig.lr` and the scene
settings that are `SceneSpec` class constants.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from dataclasses import dataclass
from typing import ClassVar

from .. import keyvalue
from ..avatar import AvatarConfig
from ..renderer import LossWeights
from ..synthdata import SceneSpec

__all__ = ["TrainConfig", "ABLATIONS", "apply_ablation", "parse_config",
           "config_text", "load_config", "parse_data_config", "data_keys"]

ABLATIONS = ("ours", "pose+face", "pose+face+latent", "no_disent",
             "no_spatial_local", "no_shadow")


@dataclass(frozen=True)
class TrainConfig:
    lr: ClassVar[float] = 1e-3
    dataset: str = ""
    out: str = ""
    iters: int = 4000
    phase1: int = 2000     # mesh-supervised warmup length
    batch: int = 8
    seed: int = 0
    checkpoint_every: int = 500
    ablate: str = "ours"
    model: AvatarConfig = AvatarConfig()
    weights: LossWeights = LossWeights()

    def __post_init__(self):
        if self.iters < 1 or self.phase1 < 0:
            raise ValueError("iters must be >= 1 and phase1 >= 0")
        if self.batch < 2:
            raise ValueError("batch must be >= 2")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.ablate not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablate!r}; "
                             f"choose from {', '.join(ABLATIONS)}")
        w = self.weights
        if not self.model.use_latent and max(w.lam_kl, w.lam_dis, w.lam_pc):
            raise ValueError("a latent-free model cannot carry KL or "
                             "disentanglement loss terms")

    def resolved(self) -> "TrainConfig":
        """The config with its ablation preset folded into model/weights."""
        model, weights = apply_ablation(self.ablate, self.model, self.weights)
        return dataclasses.replace(self, model=model, weights=weights)


def apply_ablation(name: str, model: AvatarConfig, weights: LossWeights):
    if name not in ABLATIONS:
        raise ValueError(f"unknown ablation {name!r}")
    if name == "pose+face":
        model = dataclasses.replace(model, use_latent=False)
        weights = dataclasses.replace(weights, lam_kl=0.0, lam_dis=0.0,
                                      lam_pc=0.0)
    elif name == "pose+face+latent":
        weights = dataclasses.replace(weights, lam_kl=1e-6, lam_dis=0.0,
                                      lam_pc=0.0)
    elif name == "no_disent":
        weights = dataclasses.replace(weights, lam_dis=0.0, lam_pc=0.0)
    elif name == "no_spatial_local":
        model = dataclasses.replace(model, spatial_local=False)
    elif name == "no_shadow":
        model = dataclasses.replace(model, use_shadow=False)
    return model, weights


# --------------------------------------------------------------- text I/O

def parse_config(text: str) -> TrainConfig:
    """Strict parse: every key must belong to a known section and field;
    fields not given keep their defaults."""
    kv = keyvalue.read(text)
    model = keyvalue.take_fields(AvatarConfig, kv, "model.", complete=False)
    loss = keyvalue.take_fields(LossWeights, kv, "loss.", complete=False)
    train = keyvalue.take_fields(TrainConfig, kv, "train.", complete=False)
    keyvalue.reject_unknown(kv, "config")
    return TrainConfig(model=AvatarConfig(**model),
                       weights=LossWeights(**loss), **train)


def config_text(config: TrainConfig) -> str:
    """Canonical dump; parse_config(config_text(c)) == c field for field."""
    return keyvalue.dump(keyvalue.field_items(config, "train.")
                         + keyvalue.field_items(config.model, "model.")
                         + keyvalue.field_items(config.weights, "loss."))


def load_config(path, **overrides) -> TrainConfig:
    """Read a config file and apply CLI-style scalar overrides."""
    return dataclasses.replace(parse_config(Path(path).read_text()),
                               **overrides)


@dataclass(frozen=True)
class _DataRun:
    """The data.* keys that are not scene fields."""
    n_frames: int = 2200
    test_fraction: float = 200.0 / 2200.0


def data_keys() -> list:
    """The keys parse_data_config accepts, in file order."""
    return [f"data.{f.name}" for cls in (SceneSpec, _DataRun)
            for f in dataclasses.fields(cls)]


def parse_data_config(text: str):
    """`data.*` config for dataset generation.

    Returns (scene overrides, n_frames, test_fraction); scene keys are
    the SceneSpec fields.
    """
    kv = keyvalue.read(text)
    overrides = keyvalue.take_fields(SceneSpec, kv, "data.", complete=False)
    run = _DataRun(**keyvalue.take_fields(_DataRun, kv, "data.",
                                          complete=False))
    keyvalue.reject_unknown(kv, "config")
    return overrides, run.n_frames, run.test_fraction
