"""Geometry encoder: a canonical-space position map goes in, a diagonal
Gaussian over the latent code comes out. Training-only; the driving path
never touches this module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc

__all__ = ["LatentDistribution", "GeometryEncoder", "reparameterize"]

# unposed residuals are centimeter scale on a unit-height figure; a fixed
# amplification keeps the first conv activations clear of the float32
# noise floor without any data-dependent normalization
_RESIDUAL_GAIN = 10.0
_SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class LatentDistribution:
    """Diagonal Gaussian (mu, sigma), [d_z] or one row per frame
    [B,d_z]; sigma strictly positive."""

    mu: dc.Tensor
    sigma: dc.Tensor

    def __post_init__(self):
        if self.mu.data.shape != self.sigma.data.shape:
            raise ValueError("mu and sigma must share a shape")
        if self.sigma.data.min() <= 0.0:
            raise ValueError("sigma must be positive")


def reparameterize(dist: LatentDistribution, eps) -> dc.Tensor:
    """z = mu + sigma * eps, differentiable in both moments.

    eps may carry leading sample axes; the trailing axis must match the
    latent size, and gradients reduce over the extra axes.
    """
    eps = np.asarray(eps)
    d = dist.mu.data.shape[-1]
    if eps.shape[-1:] != (d,):
        raise ValueError(f"noise must end in a length-{d} axis, got {eps.shape}")
    return dc.add(dist.mu, dc.mul(dist.sigma, eps.astype(dist.sigma.dtype)))


class GeometryEncoder:
    """Strided 3x3 conv stack over the residual to the template's position
    map, flattened into a dense head that emits mu and pre-softplus sigma.

    It takes a batch of maps [B,3,H,W] only, runs each layer once over
    all frames and gives moments [B,d_z]. The convs form each frame's
    windows on their own, but one product spans the batch: the head (and
    at the last conv's few windows the product too) may round a frame's
    moments otherwise than a batch of that frame alone."""

    def __init__(self, store: dc.ParamStore, prefix: str, ref_map: np.ndarray,
                 channels, d_z: int, rng: np.random.Generator, dtype):
        ref = np.asarray(ref_map, dtype=dtype)
        if ref.ndim != 3 or ref.shape[0] != 3:
            raise ValueError("reference position map must be [3,H,W]")
        self.ref = ref
        self.d_z = d_z
        self.convs = []
        c_in, res = 3, ref.shape[1]
        for i, c_out in enumerate(channels):
            self.convs.append(store.add_layer(
                f"{prefix}/c{i}", (c_out, c_in, 3, 3), c_in * 9.0, c_out,
                rng, dtype))
            c_in = c_out
            res = (res + 1) // 2
        self._flat = c_in * res * res
        self.head_w, self.head_b = store.add_layer(
            f"{prefix}/head", (self._flat, 2 * d_z), self._flat, 2 * d_z,
            rng, dtype)

    def __call__(self, pos_map: np.ndarray) -> LatentDistribution:
        batch = np.asarray(pos_map)
        if batch.ndim != 4 or batch.shape[1:] != self.ref.shape:
            H, W = self.ref.shape[1:]
            raise ValueError(f"position maps must be [B,3,{H},{W}], got "
                             f"{list(batch.shape)}")
        if not np.isfinite(batch).all():
            raise ValueError("position map has non-finite texels")
        B = batch.shape[0]
        x = dc.Tensor(batch.astype(self.ref.dtype))
        x = dc.mul(dc.sub(x, self.ref), _RESIDUAL_GAIN)
        for w, b in self.convs:
            x = dc.conv2d(x, w, b, stride=2, padding=1, act="leaky")
        h = dc.reshape(x, (B, self._flat))
        out = dc.linear(h, self.head_w, self.head_b, act=None)
        mu = dc.getitem(out, (slice(None), slice(0, self.d_z)))
        sigma = dc.add(dc.softplus(dc.getitem(out, (slice(None), slice(self.d_z, None)))),
                       _SIGMA_FLOOR)
        return LatentDistribution(mu, sigma)
