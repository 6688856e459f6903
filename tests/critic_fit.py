"""Adam fitting of a statistics net, the reference the MINE tests use to
check that `mine_loss` tightens its bound."""

from __future__ import annotations

import numpy as np

from dsaa import diffcore as dc
from dsaa.disentangle import StatisticsNet, mine_loss
from dsaa.rng import stream

_FIT_LR = 1e-3


def fit_statistics(store: dc.ParamStore, stats: StatisticsNet, c, z, *,
                   steps: int, batch: int, seed: int = 0) -> list[float]:
    """Adam-train the critic to tighten the pairing bound.

    `store` must hold only this net's parameters; it is stepped whole.
    Returns the bound (nats) seen on each step's minibatch before the
    update. batch >= the data size runs full-batch in data order.
    """
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
        loss = mine_loss(stats, cb, dc.Tensor(zb))
        dc.backward(loss)
        opt.step()
        trace.append(-float(loss.data))
    return trace
