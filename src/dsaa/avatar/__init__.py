"""Conditional-VAE avatar: latent geometry encoder, localized-signal
decoder, quasi-shadow gain, and LBS composition."""

from .config import AvatarConfig, manifest_text, parse_manifest
from .encoder import GeometryEncoder, LatentDistribution, reparameterize
from .decoder import AvatarDecoder
from .shadow import ShadowNet
from .compose import AvatarOutput, apply_gain, compose
from .model import AvatarModel

__all__ = [
    "AvatarConfig", "manifest_text", "parse_manifest",
    "GeometryEncoder", "LatentDistribution", "reparameterize",
    "AvatarDecoder",
    "ShadowNet",
    "AvatarOutput", "apply_gain", "compose",
    "AvatarModel",
]
