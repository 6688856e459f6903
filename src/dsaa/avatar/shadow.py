"""Quasi-shadow branch: ambient occlusion in, multiplicative texture gain
out. Depth-2 encoder-decoder with one skip; never supervised directly,
it trains through the image loss alone."""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc

__all__ = ["ShadowNet"]


class ShadowNet:
    """Maps a batch of AO maps [B,1,res,res] to gain maps of the same
    shape, bounded to (0, 2] by a doubled sigmoid head. Zero parameters
    give a unit gain exactly. Each layer runs once over all frames, each
    frame's forward products on their own."""

    def __init__(self, store: dc.ParamStore, prefix: str, res: int,
                 width: int, rng: np.random.Generator, dtype):
        if res < 4 or res % 2:
            raise ValueError("shadow resolution must be even and >= 4")
        self.res = res
        self._dt = dtype

        def conv(name, co, ci, k):
            return store.add_layer(f"{prefix}/{name}", (co, ci, k, k),
                                   ci * k * k, co, rng, dtype)

        self.w0, self.b0 = conv("c0", width, 1, 3)
        self.w1, self.b1 = conv("down", 2 * width, width, 3)
        self.w2, self.b2 = store.add_layer(
            f"{prefix}/up", (2 * width, width, 4, 4), 2 * width * 4.0, width,
            rng, dtype)
        self.w3, self.b3 = conv("c3", width, 2 * width, 3)
        self.w4, self.b4 = conv("out", 1, width, 1)

    def __call__(self, ao: np.ndarray) -> dc.Tensor:
        ao = np.asarray(ao)
        r = self.res
        if ao.ndim != 4 or ao.shape[1:] != (1, r, r):
            raise ValueError(f"AO maps must be [B,1,{r},{r}], got {list(ao.shape)}")
        if not np.isfinite(ao).all():
            raise ValueError("AO map has non-finite entries")
        x = dc.Tensor(ao.astype(self._dt))
        s = dc.conv2d(x, self.w0, self.b0, padding=1, act="leaky")
        d = dc.conv2d(s, self.w1, self.b1, stride=2, padding=1, act="leaky")
        u = dc.conv_transpose2d(d, self.w2, self.b2, act="leaky")
        h = dc.conv2d(dc.concat([u, s], axis=1), self.w3, self.b3, padding=1,
                      act="leaky")
        return dc.mul(dc.conv2d(h, self.w4, self.b4, act="sigmoid"), 2.0)
