"""Statistics network scoring (signal, latent) pairs, and a kernel
independence test between latents and signals."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .. import diffcore as dc
from ..rng import stream

__all__ = ["StatisticsNet", "hsic_test"]

_HSIC_PERMUTATIONS = 200
# the fewest rows at which the test can reject: each draw that is the
# identity reproduces the statistic, so with n! < _HSIC_PERMUTATIONS p
# stays near (1 + _HSIC_PERMUTATIONS / n!) / (1 + _HSIC_PERMUTATIONS)
# whatever z holds (6 rows at 200 permutations)
_HSIC_MIN_ROWS = next(n for n in itertools.count(1)
                      if math.factorial(n) >= _HSIC_PERMUTATIONS)


class StatisticsNet:
    """Dense critic m = f(c, z): high on paired rows, low on shuffled ones.

    Three linear layers with leaky activations between them. The signal
    batch c is an array, the latent batch z a [B, d_z] Tensor. `frozen`
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

    def _check(self, x: dc.Tensor, n, what):
        if x.ndim != 2 or x.shape[1] != n:
            raise ValueError(f"{what} must be [B, {n}], got {x.shape}")
        if not np.all(np.isfinite(x.data)):
            raise ValueError(f"{what} contains non-finite values")
        return x

    def __call__(self, c, z, frozen: bool = False) -> dc.Tensor:
        if not isinstance(z, dc.Tensor):
            raise ValueError(f"latent batch must be a [B, {self.n_latent}] "
                             f"Tensor, got {type(z).__name__}")
        c = self._check(dc.Tensor(np.asarray(c, dtype=self.w1.dtype)),
                        self.n_signal, "signal batch")
        z = self._check(z, self.n_latent, "latent batch")
        if c.shape[0] != z.shape[0]:
            raise ValueError(f"batch mismatch: {c.shape[0]} vs {z.shape[0]}")
        ps = (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)
        w1, b1, w2, b2, w3, b3 = (p.detach() for p in ps) if frozen else ps
        h = dc.linear(dc.concat([c, z], axis=1), w1, b1, act="leaky")
        h = dc.linear(h, w2, b2, act="leaky")
        return dc.linear(h, w3, b3, act=None)


def _gaussian_gram(x) -> np.ndarray:
    """Gaussian Gram matrix [n, n] of the rows of x [n, d]: exp(-d^2 / m)
    on columns standardised to unit population std, m the median nonzero
    off-diagonal d^2; all zeros if there is none. A constant column
    centres to copies of one value, so its std is exactly 0 and it stays
    0. d^2 is summed column by column, without BLAS, so its bytes do not
    depend on BLAS threads."""
    x = np.asarray(x, dtype=np.float64)
    centred = x - x.mean(axis=0)
    sd = centred.std(axis=0)
    x = np.divide(centred, sd, out=np.zeros_like(centred), where=sd > 0)
    d2 = np.zeros((len(x), len(x)))
    for col in x.T:
        d2 += np.square(col[:, None] - col[None, :])
    nonzero = d2[d2 > 0]       # the diagonal is exactly 0
    return np.exp(-d2 / np.median(nonzero)) if nonzero.size else d2


def hsic_test(z, c, seed: int = 0) -> tuple[float, float]:
    """Permutation test of independence between the rows of z [n, d_z]
    and c [n, d_c] (Gretton et al., NeurIPS 2007): the biased HSIC
    sum(K * HLH) / n^2 of their Gaussian Gram matrices, against
    `_HSIC_PERMUTATIONS` permutations of z's rows drawn from
    stream(seed, "report", "hsic"). Returns (stat, p) with
    p = (1 + #{null >= stat}) / (1 + permutations)."""
    if np.ndim(z) != 2 or np.ndim(c) != 2 or len(z) != len(c):
        raise ValueError(f"need [n, d] inputs with equal rows, got "
                         f"{np.shape(z)} and {np.shape(c)}")
    k, gl = _gaussian_gram(z), _gaussian_gram(c)
    hlh = gl - gl.mean(axis=0) - gl.mean(axis=1, keepdims=True) + gl.mean()
    stat = float(np.sum(k * hlh) / k.size)
    r = stream(seed, "report", "hsic")
    perms = (r.permutation(len(k)) for _ in range(_HSIC_PERMUTATIONS))
    exceed = sum(np.sum(k[np.ix_(p, p)] * hlh) / k.size >= stat for p in perms)
    return stat, (1 + int(exceed)) / (1 + _HSIC_PERMUTATIONS)
