"""Inverse-rendering objectives: the image loss and the mesh terms.

All reductions are sums; the weights absorb scale. The trainer's `_step`
builds a step's whole objective as one graph, adding each term where the
step computes it: phase 1 adds L_G (`l2_sum` against the registered
vertices) and phase 2 the image objective `losses` of each frame; both
then add L_lap (`laplacian_loss`) once, after the phase branch, and
phase 2 the KL / disentanglement / perturbation terms, under the weights
a run's variant sets (`dsaa.harness.config.LossWeights`). The critic's
loss joins that root, so a step makes one `dc.backward` walk; the model
steps first, then the critic. Every weighted sum goes through
`add_term`. The weights of L_I, L_M, L_lap and L_G are constants
(LAM_*): no run varies them.
"""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc
from ..diffcore.tensor import make_node
from ..body import TemplateMesh
from .raster import RenderTarget

LAM_IMG = 1.0
LAM_MASK = 0.5
LAM_LAP = 10.0
LAM_GEOM = 1.0


def l1_sum(a: dc.Tensor, b) -> dc.Tensor:
    """Sum of absolute differences; |x| built as relu(x) + relu(-x)."""
    d = dc.sub(a, b)
    return dc.add(dc.sum_(dc.relu(d)), dc.sum_(dc.relu(dc.neg(d))))


def l2_sum(a: dc.Tensor, b) -> dc.Tensor:
    d = dc.sub(a, b)
    return dc.sum_(dc.mul(d, d))


def add_term(total, parts: dict, name: str, term: dc.Tensor, lam: float):
    """total + lam*term, where None starts the sum; the unweighted value
    of term is added to parts[name]."""
    parts[name] = parts.get(name, 0.0) + float(term.data)
    scaled = dc.mul(term, lam)
    return scaled if total is None else dc.add(total, scaled)


def losses(render: RenderTarget, gt_image, gt_mask):
    """Image objective of one view, LAM_IMG*L_I + LAM_MASK*L_M. Returns
    (total Tensor, parts) with parts the unweighted "img" and "mask"."""
    gt_image = np.asarray(gt_image, dtype=render.image.dtype)
    gt_mask = np.asarray(gt_mask, dtype=render.mask.dtype)
    if render.image.shape != gt_image.shape:
        raise ValueError(f"image shape mismatch: {render.image.shape} vs {gt_image.shape}")
    if render.mask.shape != gt_mask.shape:
        raise ValueError(f"mask shape mismatch: {render.mask.shape} vs {gt_mask.shape}")
    parts = {}
    total = add_term(None, parts, "img", l1_sum(render.image, gt_image),
                     LAM_IMG)
    total = add_term(total, parts, "mask", l2_sum(render.mask, gt_mask),
                     LAM_MASK)
    return total, parts


def laplacian_loss(template: TemplateMesh, posed: dc.Tensor, gt_lap):
    """L_lap: the l2_sum between the Laplacian (`mesh_laplacian`) of each
    frame of posed [B,V,3] and gt_lap [B,V,3], the ground-truth meshes',
    in posed's dtype, summed over the batch; training reads gt_lap from
    `TrainData.laplacian`, which computes it once per frame. It is one
    node over all frames; each frame's gradient is the one a batch of
    that frame alone hands it.

    One tape node, over (posed, posed). Its value and the two gradients
    it hands posed are, byte for byte, those of the graph it replaces,
    `l2_sum(mesh_laplacian(template, posed), gt_lap)`
    (tests/test_laplacian_term.py keeps it as the oracle): the same
    products and sums in the same order, the sums over neighbor slots
    adding one slot after another as numpy's reduction over that axis
    does, and the two gradients in that graph's order, first its
    neighbor gather's, then its reshape's. Only signs of zero may differ
    on the way, and the tape's `0 + g` drops them before they reach
    posed's gradient. The gather's gradient is one 1-D `np.add.at` over
    the flattened vertices (`TemplateMesh.neighbor_flat_index`), which
    adds each element's updates in the order the 2-D scatter over the
    table rows does.
    """
    v = posed.data
    if v.ndim != 3 or v.shape[-1] != 3:
        raise ValueError(f"posed vertices must be [B,V,3], got {list(v.shape)}")
    gt_lap = np.asarray(gt_lap)
    if gt_lap.shape != v.shape or gt_lap.dtype != v.dtype:
        raise ValueError(f"ground-truth Laplacian must be {v.dtype} "
                         f"{v.shape}, got {gt_lap.dtype} {gt_lap.shape}")
    idx, inv_deg = template.neighbor_table()
    slots = idx.shape[1]
    scale = inv_deg[:, None].astype(v.dtype)
    # x_u - x_i with the neighbor slot leading, so the slot sum adds whole
    # rows, in slot order, as mesh_laplacian's sum over its axis 1 does
    diffs = np.take(v, idx.T, axis=1) - v[:, None]     # [B,Dmax,V,3]
    d = -diffs.sum(axis=1) * scale - gt_lap

    def bw(g, needs):
        gs = -((2 * (g * d)) * scale)      # through d*d, * scale and the -
        g_nbrs = np.zeros(v.shape, dtype=v.dtype)
        # each frame's block of the flattened vertices, in turn
        flat = (template.neighbor_flat_index()
                + v[0].size * np.arange(v.shape[0])[:, None]).ravel()
        np.add.at(g_nbrs.reshape(-1), flat,
                  np.repeat(gs, slots, axis=-2).reshape(-1))
        g_self = gs.copy()                 # the slot sum's spread, summed
        for _ in range(slots - 1):         # back one slot at a time
            g_self += gs
        return g_nbrs, -g_self

    return make_node((d * d).sum(), (posed, posed), bw, "laplacian")
