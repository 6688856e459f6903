"""Losses that keep the latent code independent of the driving signals.

Three mechanisms, applied in increasing order of directness: the KL
penalty of the variational posterior, an adversarial mutual-information
bound scored by a statistics network, and a perturbation-consistency
term on the corrective at the joints' rigidly bound anchor vertices,
whose place the pose alone fixes. All are pure functions of their
inputs; reductions are sums or batch means as documented per loss.
"""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc

__all__ = ["kl_loss", "mine_loss", "adversarial_dis_loss",
           "joint_anchor_uvs", "perturbation_loss"]


def kl_loss(dist) -> dc.Tensor:
    """KL(N(mu, sigma^2) || N(0, I)) = 0.5 * sum(mu^2 + sigma^2 - 1 - ln sigma^2).

    Summed over latent dimensions and any leading batch axes: a batched
    posterior [B,d_z] gives the batch's total in one reduction."""
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


def adversarial_dis_loss(stats, c, z) -> dc.Tensor:
    """Generator-side disentanglement term: the MI bound itself.

    The statistics net is evaluated frozen, so backward reaches only the
    latent path (encoder moments via z); its own parameters are trained
    separately through mine_loss.
    """
    return _bound(stats, c, z, frozen=True)


def joint_anchor_uvs(template, skeleton) -> np.ndarray:
    """UVs [J,2] of every joint's most strongly bound vertex, lowest
    index on ties.

    Each anchor must be bound to its joint alone: blend skinning then
    moves it by that joint's rigid transform, so a corrective c at the
    anchor lands R_j c away from the pose-only position, at distance |c|
    whatever the pose.
    """
    w = template.weights
    if w.shape[1] != len(skeleton.names):
        raise ValueError(
            f"{w.shape[1]} weight columns for {len(skeleton.names)} joints")
    rows = np.argmax(w, axis=0)
    blended = np.count_nonzero(w[rows], axis=1) != 1
    if blended.any():
        raise ValueError(f"anchor vertices {rows[blended].tolist()} blend "
                         "several joints; the term needs rigid anchors")
    return template.uvs[rows]


def perturbation_loss(prior_maps: dc.Tensor, anchor_uvs) -> dc.Tensor:
    """Penalty for prior samples moving geometry the pose alone fixes.

    prior_maps are the batch's displacement maps [B,3,H,W] at one prior
    sample per element (`AvatarModel.displacement`); each map's
    corrective is sampled at the anchor UVs [A,2] (`joint_anchor_uvs`),
    squared and summed over anchors and the batch, then divided by the
    batch size.
    """
    c = dc.texture_sample(prior_maps, anchor_uvs)
    return dc.mul(dc.sum_(dc.mul(c, c)), 1.0 / prior_maps.shape[0])
