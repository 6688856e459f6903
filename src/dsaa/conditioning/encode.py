"""Location-dependent compression of masked, tiled driving signals."""

import numpy as np

from .. import diffcore as dc

__all__ = ["LocalizedProjector"]


class LocalizedProjector:
    """Two 1x1 layers with per-texel (untied) biases over masked tilings
    of a plain signal vector (the signal is an input, never fit).

    Weights are shared across texels; only the biases vary spatially, so a
    signal scalar can reach a texel solely through its own mask channel.
    The output is re-masked by the channel union, which keeps texels no
    scalar influences at exactly zero. `masks` is the [n, h, w] array of
    the n scalars' influence masks on the h x w grid.
    """

    def __init__(self, store: dc.ParamStore, prefix: str, masks: np.ndarray,
                 *, hidden: int, out_channels: int,
                 rng: np.random.Generator, dtype=np.float32):
        n, h, w = masks.shape
        self.grid = (h, w)
        self.n_signal = n
        self._mask = masks.astype(dtype).reshape(n, h * w)
        self._union = masks.any(axis=0).astype(dtype)[None]
        self.w1 = store.add(f"{prefix}/w1",
                            (rng.normal(size=(hidden, n)) / np.sqrt(n)).astype(dtype))
        self.b1 = store.add(f"{prefix}/b1", np.zeros((hidden, h, w), dtype=dtype))
        self.w2 = store.add(f"{prefix}/w2",
                            (rng.normal(size=(out_channels, hidden)) / np.sqrt(hidden)).astype(dtype))
        self.b2 = store.add(f"{prefix}/b2", np.zeros((out_channels, h, w), dtype=dtype))

    def __call__(self, x: np.ndarray) -> dc.Tensor:
        """Embeddings [B,C,h,w] of a batch of signals x [B,n] (its only
        form), each frame's through its own products."""
        if x.ndim != 2 or x.shape[1] != self.n_signal:
            raise ValueError(f"signals must be [B,{self.n_signal}], got "
                             f"{list(x.shape)}")
        B = x.shape[0]
        h, w = self.grid
        hidden, c_out = self.w1.data.shape[0], self.w2.data.shape[0]
        # the signal is a constant: its masked tiling is one array product
        masked = x[:, :, None] * self._mask                  # [B,n,h*w]
        z1 = dc.reshape(dc.matmul(self.w1, masked), (B, hidden, h, w))
        a1 = dc.tanh(dc.add(z1, self.b1))
        z2 = dc.reshape(dc.matmul(self.w2, dc.reshape(a1, (B, hidden, h * w))),
                        (B, c_out, h, w))
        return dc.mul(dc.add(z2, self.b2), self._union)
