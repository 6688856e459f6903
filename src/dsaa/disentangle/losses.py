"""Losses that keep the latent code independent of the driving signals.

Three mechanisms, applied in increasing order of directness: the KL
penalty of the variational posterior, an adversarial mutual-information
bound scored by a statistics network, and a perturbation-consistency
term for signal components with a direct output correspondence. All are
pure functions of their inputs; reductions are sums or batch means as
documented per loss.
"""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc
from .correspond import CorrespondenceSet

__all__ = ["kl_loss", "mine_loss", "mi_estimate", "adversarial_dis_loss",
           "perturbation_loss"]


def kl_loss(dist) -> dc.Tensor:
    """KL(N(mu, sigma^2) || N(0, I)) = 0.5 * sum(mu^2 + sigma^2 - 1 - ln sigma^2).

    Summed over latent dimensions (and any leading batch axes)."""
    mu, sg = dist.mu, dist.sigma
    if sg.data.min() <= 0.0:
        raise ValueError("kl_loss needs strictly positive sigma")
    inner = dc.sub(dc.sub(dc.add(dc.mul(mu, mu), dc.mul(sg, sg)), 1.0),
                   dc.mul(dc.log(sg), 2.0))
    return dc.mul(dc.sum_(inner), 0.5)


def _rows(x) -> int:
    d = x.data if isinstance(x, dc.Tensor) else np.asarray(x)
    return d.shape[0]


def _bound(stats, c, z, frozen: bool) -> dc.Tensor:
    """Pairing bound: mean f(c_b, z_b) - log mean exp f(c_b, zhat_b).

    zhat is the batch rotated by one position, a fixed-point-free pairing
    shuffle that is deterministic under the data order. The log-mean-exp
    is shifted by the (detached) max score for overflow safety.
    """
    b = _rows(c)
    if b != _rows(z):
        raise ValueError(f"batch mismatch: {b} signals vs {_rows(z)} latents")
    if b < 2:
        raise ValueError("pairing shuffle needs a batch of at least 2")
    joint = stats(c, z, frozen=frozen)
    if isinstance(z, dc.Tensor):
        zhat = dc.concat([dc.getitem(z, slice(1, None)),
                          dc.getitem(z, slice(None, 1))], axis=0)
    else:
        zhat = np.concatenate([z[1:], z[:1]], axis=0)
    marg = stats(c, zhat, frozen=frozen)
    shift = float(marg.data.max())
    lse = dc.add(dc.log(dc.mean_(dc.exp(dc.sub(marg, shift)))), shift)
    return dc.sub(dc.mean_(joint), lse)


def mine_loss(stats, c, z) -> dc.Tensor:
    """Statistics-network training loss; its negative is the MI estimate.

    Minimized over the net's parameters it tightens the bound from below;
    c and z are [B, n] batches with rows paired.
    """
    return dc.neg(_bound(stats, c, z, frozen=False))


def mi_estimate(stats, c, z) -> float:
    """Current MI lower-bound estimate in nats (no graph is built)."""
    with dc.no_grad():
        return float(_bound(stats, c, z, frozen=True).data)


def adversarial_dis_loss(stats, c, z) -> dc.Tensor:
    """Generator-side disentanglement term: the MI bound itself.

    The statistics net is evaluated frozen, so backward reaches only the
    latent path (encoder moments via z); its own parameters are trained
    separately through mine_loss.
    """
    return _bound(stats, c, z, frozen=True)


def perturbation_loss(decode_fn, signals, z_samples, corr: CorrespondenceSet) -> dc.Tensor:
    """Penalty for prior samples dragging signal-corresponded outputs.

    For each batch element b, decode_fn(signals[b], z_samples[b]) must
    return a 2-d output whose rows corr.rows are compared against
    corr.target(signals[b]); squared errors are summed over sites and
    averaged over the batch (one prior sample per element).
    """
    z_samples = np.asarray(z_samples, dtype=np.float64)
    n = len(signals)
    if n == 0 or z_samples.shape[0] != n:
        raise ValueError(
            f"need one latent sample per signal, got {z_samples.shape[0]} for {n}")
    rows = list(corr.rows)
    total = None
    for b in range(n):
        out = decode_fn(signals[b], z_samples[b])
        if out.ndim != 2:
            raise ValueError(f"decoder output must be 2-d, got {out.shape}")
        if max(rows) >= out.shape[0]:
            raise ValueError(
                f"selection row {max(rows)} out of range for output {out.shape}")
        tgt = np.asarray(corr.target(signals[b]), dtype=out.dtype)
        if tgt.shape != (len(rows), out.shape[1]):
            raise ValueError(
                f"target shape {tgt.shape} does not match selected "
                f"({len(rows)}, {out.shape[1]})")
        d = dc.sub(dc.getitem(out, rows), tgt)
        term = dc.sum_(dc.mul(d, d))
        total = term if total is None else dc.add(total, term)
    return dc.mul(total, 1.0 / n)
