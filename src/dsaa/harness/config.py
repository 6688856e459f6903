"""Experiment configuration: text format, training options, variants.

Config files are line-oriented ``section.key = value`` with whole-line
``#`` comments (see dsaa.keyvalue); keys not given keep their defaults.
`VARIANTS` defines the report's variants: each sets `AvatarConfig`
switches and `LossWeights` values only, so architecture sizes and
parameter counts stay comparable.

A key exists only if a run varies it: code outside the tests sets it
(model.geo_res, train.*, data.image_size, data.n_cameras, data.seed,
data.n_frames, data.test_fraction), a `VARIANTS` entry does
(model.use_*, spatial_local, loss.*), it must match the dataset (n_face,
in model.* and data.*) or tests use its second value (dtype,
data.rho_spurious). The rest are constants: `AvatarConfig`'s sizes, the
image and mesh weights in `dsaa.renderer.losses`, `TrainConfig.lr` and
the scene settings that are `SceneSpec` class constants.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from .. import keyvalue
from ..avatar import AvatarConfig
from ..synthdata import SceneSpec

__all__ = ["TrainConfig", "LossWeights", "VARIANTS", "parse_config",
           "config_text", "load_config", "parse_data_config", "data_keys"]


@dataclass(frozen=True)
class LossWeights:
    """Weights of the terms the variants set: KL, adversary, consistency."""
    lam_kl: float = 1e-3
    lam_dis: float = 0.1
    lam_pc: float = 0.1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{f.name} must be finite and nonnegative, "
                                 f"got {v}")


class Variant(NamedTuple):
    label: str          # the report's row name
    switches: dict      # AvatarConfig fields it sets
    weights: dict       # LossWeights fields it sets


_NO_DISENT = {"lam_dis": 0.0, "lam_pc": 0.0}

# the report's variants, in table order; each sets only what it names
VARIANTS = {
    # the full model
    "ours": Variant("OURS", {}, {}),
    # no latent code, and therefore no KL, adversary or consistency term
    "pose+face": Variant("pose+face", {"use_latent": False},
                         {"lam_kl": 0.0, **_NO_DISENT}),
    # latent kept, with a near-zero KL: an effectively unregularized code
    "pose+face+latent": Variant("pose+face+latent", {},
                                {"lam_kl": 1e-6, **_NO_DISENT}),
    # adversary and consistency off, standard KL
    "no_disent": Variant("OURS (no disent.)", {}, _NO_DISENT),
    # influence masks replaced by all-ones channels
    "no_spatial_local": Variant("OURS (no spat. local.)",
                                {"spatial_local": False}, {}),
    # gain branch pinned at 1
    "no_shadow": Variant("OURS (no shadow)", {"use_shadow": False}, {}),
}


@dataclass(frozen=True)
class TrainConfig:
    """Training options. Building one folds its variant's switches and
    weights into `model` and `weights`, so every config in use is final."""
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
        if self.ablate not in VARIANTS:
            raise ValueError(f"unknown ablation {self.ablate!r}; "
                             f"choose from {', '.join(VARIANTS)}")
        variant = VARIANTS[self.ablate]
        object.__setattr__(self, "model", dataclasses.replace(
            self.model, **variant.switches))
        object.__setattr__(self, "weights", dataclasses.replace(
            self.weights, **variant.weights))
        w = self.weights
        if not self.model.use_latent and max(w.lam_kl, w.lam_dis, w.lam_pc):
            raise ValueError("a latent-free model cannot carry KL or "
                             "disentanglement loss terms")


# --------------------------------------------------------------- text I/O

def parse_config(text: str, **overrides) -> TrainConfig:
    """Strict parse: every key must belong to a known section and field;
    fields not given keep their defaults. `overrides` replace train.*
    fields before the config is built, and so before its variant is
    folded in."""
    kv = keyvalue.read(text)
    model = keyvalue.take_fields(AvatarConfig, kv, "model.", complete=False)
    loss = keyvalue.take_fields(LossWeights, kv, "loss.", complete=False)
    train = keyvalue.take_fields(TrainConfig, kv, "train.", complete=False)
    keyvalue.reject_unknown(kv, "config")
    return TrainConfig(model=AvatarConfig(**model),
                       weights=LossWeights(**loss), **{**train, **overrides})


def config_text(config: TrainConfig) -> str:
    """Canonical dump; parse_config(config_text(c)) == c field for field."""
    return keyvalue.dump(keyvalue.field_items(config, "train.")
                         + keyvalue.field_items(config.model, "model.")
                         + keyvalue.field_items(config.weights, "loss."))


def load_config(path, **overrides) -> TrainConfig:
    """Read a config file and apply CLI-style scalar overrides."""
    return parse_config(Path(path).read_text(), **overrides)


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
