"""Model hyperparameters and the text manifest that makes checkpoints
self-describing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .. import keyvalue

__all__ = ["AvatarConfig", "manifest_text", "parse_manifest"]

_FORMAT = "dsaa-avatar-2"


@dataclass(frozen=True)
class AvatarConfig:
    """The fields are what a run varies (the rule is in dsaa.harness.config):
    geo_res, n_face, the variants' switches and dtype; d_z, the widths, tau
    and head_joint are class constants, read as `config.x` but in no
    manifest. geo_res fixes the displacement / conditioning grid; the
    latent branch runs on a min(geo_res, 12)-pixel square and is spread to
    it, the texture at tex_res = 2 * geo_res and the shadow branch at a
    quarter of that. use_latent=False drops the encoder and always drives
    with z = 0, use_shadow=False pins the gain at 1, spatial_local=False
    replaces the influence masks with all-ones channels of the same layout.
    """

    d_z: ClassVar[int] = 16
    embed_channels: ClassVar[int] = 8
    hidden_signal: ClassVar[int] = 16
    enc_channels: ClassVar[tuple] = (16, 32, 64, 64)
    width_geo: ClassVar[int] = 32
    width_tex: ClassVar[int] = 16
    shadow_width: ClassVar[int] = 8
    tau: ClassVar[float] = 0.05
    head_joint: ClassVar[str] = "head"

    geo_res: int = 32
    n_face: int = 4
    use_latent: bool = True
    use_shadow: bool = True
    spatial_local: bool = True
    dtype: str = "float32"

    def __post_init__(self):
        if self.geo_res < 8 or self.geo_res % 4:
            raise ValueError("geo_res must be >= 8 and divisible by 4")
        if self.n_face < 1:
            raise ValueError("n_face must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @property
    def tex_res(self) -> int:
        return 2 * self.geo_res

    @property
    def shadow_res(self) -> int:
        return self.tex_res // 4


def manifest_text(config: AvatarConfig) -> str:
    """Line-oriented `key = value` dump, one line per config field."""
    return keyvalue.dump([("format", _FORMAT)] + keyvalue.field_items(config))


def parse_manifest(text: str) -> AvatarConfig:
    """Strict inverse of manifest_text: every field required, none extra."""
    kv = keyvalue.read(text)
    if kv.pop("format", None) != _FORMAT:
        raise ValueError(f"manifest must declare 'format = {_FORMAT}'")
    args = keyvalue.take_fields(AvatarConfig, kv)
    keyvalue.reject_unknown(kv, "manifest")
    return AvatarConfig(**args)
