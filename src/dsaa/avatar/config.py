"""Model hyperparameters and the text manifest that makes checkpoints
self-describing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import keyvalue

__all__ = ["AvatarConfig", "manifest_text", "parse_manifest"]

_FORMAT = "dsaa-avatar-1"


@dataclass(frozen=True)
class AvatarConfig:
    """Architecture sizes and ablation switches.

    geo_res fixes the displacement / conditioning grid; the latent branch
    runs on a min(geo_res, 12)-pixel square and is spread to it, the
    texture runs at twice geo_res and the shadow branch at a quarter of
    the texture. The
    ablation flags select reduced variants: use_latent=False drops the
    encoder and always drives with z = 0, use_shadow=False pins the gain
    at 1, spatial_local=False replaces the influence masks with all-ones
    channels of the same layout.
    """

    d_z: int = 16
    geo_res: int = 32
    tex_res: int = 64
    embed_channels: int = 8
    hidden_signal: int = 16
    enc_channels: tuple = (16, 32, 64, 64)
    width_geo: int = 32
    width_tex: int = 16
    shadow_width: int = 8
    n_face: int = 4
    tau: float = 0.05
    head_joint: str = "head"
    use_latent: bool = True
    use_shadow: bool = True
    spatial_local: bool = True
    dtype: str = "float32"

    def __post_init__(self):
        object.__setattr__(self, "enc_channels",
                           tuple(int(c) for c in self.enc_channels))
        if self.d_z < 1:
            raise ValueError("d_z must be >= 1")
        if self.geo_res < 8 or self.geo_res % 4:
            raise ValueError("geo_res must be >= 8 and divisible by 4")
        if self.tex_res != 2 * self.geo_res:
            raise ValueError("tex_res must be exactly twice geo_res")
        if not self.enc_channels or min(self.enc_channels) < 1:
            raise ValueError("enc_channels must be positive")
        if min(self.embed_channels, self.hidden_signal, self.width_geo,
               self.width_tex, self.shadow_width) < 1:
            raise ValueError("channel widths must be positive")
        if self.n_face < 0:
            raise ValueError("n_face must be >= 0")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

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
