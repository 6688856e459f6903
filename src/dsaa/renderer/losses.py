"""Inverse-rendering objectives: the image loss and the mesh loss.

All reductions are sums; the weights absorb scale. The trainer's phase 1
supervises geometry only with `mesh_loss` (L_G + L_lap against the
registered mesh). Phase 2 runs the image objective `losses` and adds
L_lap itself as a smoothness regularizer; L_G is dropped. The KL /
disentanglement / perturbation terms are composed by the trainer, which
owns those submodules, under the weights a run's variant sets
(`dsaa.harness.config.LossWeights`). Every weighted sum goes through
`add_term`. The weights of L_I, L_M, L_lap and L_G are constants (LAM_*):
no run varies them.
"""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc
from ..body import TemplateMesh, mesh_laplacian
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


def mesh_loss(posed: dc.Tensor, gt_verts, template: TemplateMesh):
    """Mesh objective of one frame, LAM_GEOM*L_G + LAM_LAP*L_lap. Returns
    (total Tensor, parts) with parts the unweighted "geom" and "lap"."""
    parts = {}
    gt = np.asarray(gt_verts, dtype=posed.dtype)
    total = add_term(None, parts, "geom", l2_sum(posed, gt), LAM_GEOM)
    total = add_term(total, parts, "lap",
                     laplacian_loss(template, posed, gt), LAM_LAP)
    return total, parts


def laplacian_loss(template: TemplateMesh, posed: dc.Tensor, gt_verts):
    """L_lap: the l2_sum between the two meshes' Laplacians."""
    la = mesh_laplacian(template, posed)
    lb = mesh_laplacian(template, np.asarray(gt_verts, dtype=posed.dtype))
    return l2_sum(la, lb)
