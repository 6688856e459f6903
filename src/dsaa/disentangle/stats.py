"""Statistics network scoring (signal, latent) pairs, and its trainer."""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc
from ..rng import stream

__all__ = ["StatisticsNet", "fit_statistics"]

_FIT_LR = 1e-3


class StatisticsNet:
    """Dense critic m = f(c, z): high on paired rows, low on shuffled ones.

    Three linear layers with leaky activations between them. `frozen`
    evaluation detaches the parameters, so a loss built on top of it can
    reach the inputs without touching the critic.
    """

    def __init__(self, store: dc.ParamStore, prefix: str, n_signal: int,
                 n_latent: int, width: int = 64, *,
                 rng: np.random.Generator, dtype=np.float64):
        if n_signal < 1 or n_latent < 1 or width < 1:
            raise ValueError("input dims and width must be positive")
        self.n_signal = n_signal
        self.n_latent = n_latent

        def lin(name, din, dout):
            return store.add_layer(f"{prefix}/{name}", (din, dout), din, dout,
                                   rng, dtype)

        self.w1, self.b1 = lin("l1", n_signal + n_latent, width)
        self.w2, self.b2 = lin("l2", width, width)
        self.w3, self.b3 = lin("out", width, 1)

    def _wrap(self, x, n, what):
        if not isinstance(x, dc.Tensor):
            x = dc.Tensor(np.asarray(x, dtype=self.w1.dtype))
        if x.ndim != 2 or x.shape[1] != n:
            raise ValueError(f"{what} must be [B, {n}], got {x.shape}")
        if not np.all(np.isfinite(x.data)):
            raise ValueError(f"{what} contains non-finite values")
        return x

    def __call__(self, c, z, frozen: bool = False) -> dc.Tensor:
        c = self._wrap(c, self.n_signal, "signal batch")
        z = self._wrap(z, self.n_latent, "latent batch")
        if c.shape[0] != z.shape[0]:
            raise ValueError(f"batch mismatch: {c.shape[0]} vs {z.shape[0]}")
        ps = (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)
        w1, b1, w2, b2, w3, b3 = (p.detach() for p in ps) if frozen else ps
        h = dc.linear(dc.concat([c, z], axis=1), w1, b1, act="leaky")
        h = dc.linear(h, w2, b2, act="leaky")
        return dc.linear(h, w3, b3, act=None)


def fit_statistics(store: dc.ParamStore, stats: StatisticsNet, c, z, *,
                   steps: int, batch: int, seed: int = 0) -> list[float]:
    """Adam-train the critic to tighten the pairing bound.

    `store` must hold only this net's parameters; it is stepped whole.
    Returns the bound (nats) seen on each step's minibatch before the
    update. batch >= the data size runs full-batch in data order.
    """
    from .losses import mine_loss

    c = np.asarray(c, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n = c.shape[0]
    if z.shape[0] != n:
        raise ValueError(f"batch mismatch: {n} signals vs {z.shape[0]} latents")
    if batch < 2:
        raise ValueError("minibatch must hold at least 2 rows")
    opt = dc.Adam(store, lr=_FIT_LR)
    r = stream(seed, "mi-fit")
    trace = []
    for _ in range(steps):
        if batch < n:
            idx = r.choice(n, size=batch, replace=False)
            cb, zb = c[idx], z[idx]
        else:
            cb, zb = c, z
        store.zero_grad()
        loss = mine_loss(stats, cb, zb)
        dc.backward(loss)
        opt.step()
        trace.append(-float(loss.data))
    return trace
