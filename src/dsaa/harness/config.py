"""Experiment configuration: text format, training options, variants.

Config files are line-oriented ``section.key = value`` with whole-line
``#`` comments (see dsaa.keyvalue); keys not given keep their defaults.
`VARIANTS` defines the report's variants: each sets `AvatarConfig`
switches and `LossWeights` values only, so architecture sizes and
parameter counts stay comparable.

A key exists only if a run varies it: code outside the tests sets it
(model.geo_res, train.*, data.image_size, data.n_cameras, data.seed,
data.n_frames, data.test_fraction), it must match the dataset (n_face,
in model.* and data.*) or tests use its second value (dtype,
data.rho_spurious). A run's model switches and loss weights are its
variant's (train.ablate), not keys, so a run is always the variant it
names. The rest are constants: `AvatarConfig`'s sizes, the image and
mesh weights in `dsaa.renderer.losses`, `TrainConfig.lr` and the scene
settings that are `SceneSpec` class constants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from .. import keyvalue
from ..avatar import AvatarConfig
from ..synthdata import SceneSpec

__all__ = ["TrainConfig", "LossWeights", "VARIANTS", "parse_config",
           "config_text", "parse_data_config", "data_keys"]


@dataclass(frozen=True)
class LossWeights:
    """Weights of the terms the variants set: KL, adversary, consistency.
    The defaults are OURS's; a run's weights are its `VARIANTS` entry's
    (`TrainConfig.weights`), never set on their own."""
    lam_kl: float = 1e-3
    lam_dis: float = 0.1
    lam_pc: float = 0.1


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


# the AvatarConfig fields a variant may set, and those a config file sets
_SWITCHES = sorted({k for v in VARIANTS.values() for k in v.switches})
_MODEL_KEYS = [f.name for f in dataclasses.fields(AvatarConfig)
               if f.name not in _SWITCHES]


@dataclass(frozen=True)
class TrainConfig:
    """Training options. `ablate` names the run's variant, the one source
    of its model switches and loss weights: building a config folds the
    variant's switches into `model`, and `weights` reads its weights.
    A `model` must carry `AvatarConfig`'s default switches or the
    variant's; any other set is refused, never overwritten."""
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
        defaults = dataclasses.replace(self.model, **{
            k: getattr(AvatarConfig, k) for k in _SWITCHES})
        folded = dataclasses.replace(
            defaults, **VARIANTS[self.ablate].switches)
        if self.model not in (defaults, folded):
            bad = [f"{k} = {getattr(self.model, k)}" for k in _SWITCHES
                   if getattr(self.model, k) != getattr(folded, k)]
            raise ValueError(f"variant {self.ablate} sets the model switches; "
                             f"the model given has {', '.join(bad)}")
        object.__setattr__(self, "model", folded)

    @property
    def weights(self) -> LossWeights:
        return LossWeights(**VARIANTS[self.ablate].weights)


# --------------------------------------------------------------- text I/O

def parse_config(text: str, **overrides) -> TrainConfig:
    """Strict parse: every key must belong to a known section and field;
    fields not given keep their defaults; a switch or loss-weight key is
    unknown. `overrides` replace train.* fields before the config is
    built, and so before its variant is folded in."""
    kv = keyvalue.read(text)
    model = keyvalue.take_fields(AvatarConfig, {
        k: kv.pop(f"model.{k}") for k in _MODEL_KEYS if f"model.{k}" in kv},
        complete=False)
    train = keyvalue.take_fields(TrainConfig, kv, "train.", complete=False)
    keyvalue.reject_unknown(kv, "config")
    return TrainConfig(model=AvatarConfig(**model), **{**train, **overrides})


def config_text(config: TrainConfig) -> str:
    """Canonical dump; parse_config(config_text(c)) == c field for field."""
    return keyvalue.dump(keyvalue.field_items(config, "train.") + [
        (f"model.{k}", v) for k, v in keyvalue.field_items(config.model)
        if k in _MODEL_KEYS])


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
