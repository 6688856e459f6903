"""The Laplacian term as one tape node, against the graph it replaced.

`renderer.laplacian_loss` reads a cached ground-truth Laplacian and
builds one "laplacian" node over a batch of posed vertices (posed,
posed). The oracle here is the old graph: `body.mesh_laplacian`'s ops on
the posed Tensor (gather, reshape, sub, sum, neg, mul), over its leading
batch axis, each frame's Laplacian checked against `body.mesh_laplacian`
byte for byte, and `renderer.l2_sum` against the ground truth's
Laplacian. Both must give the same loss bytes and the same bytes in
posed's gradient, also when another node reads posed first, as the
trainer's `sub` (L_G) and the rasterizer's `matmul` do: the tape then
adds the term's two gradients into posed after that node's, in the old
graph's order. Posed is a batch of one frame.
"""

import numpy as np
import pytest

from dsaa import body, diffcore as dc, renderer
from dsaa import synthdata as sd
from fd import gradcheck
from test_avatar import strip_rig


def _default_figure():
    return sd.SceneSpec(image_size=32, seed=3).figure.template


def _strip():
    return strip_rig(skew=0.01)[0]


def _gt_lap(tpl, posed, gt_verts):
    return np.stack([body.mesh_laplacian(tpl, np.asarray(g, dtype=posed.dtype))
                     for g in gt_verts])


def _old_term(tpl, posed, gt_verts):
    """The replaced graph: mesh_laplacian's ops on the Tensor [B,V,3],
    then l2_sum."""
    idx, inv_deg = tpl.neighbor_table()
    B, V = posed.shape[:2]
    nbrs = dc.getitem(posed, (slice(None), idx))             # [B,V,Dmax,3]
    diffs = dc.sub(nbrs, dc.reshape(posed, (B, V, 1, 3)))
    lap = dc.mul(dc.neg(dc.sum_(diffs, axis=2)),
                 inv_deg[:, None].astype(posed.dtype))
    for b in range(B):
        assert (lap.data[b].tobytes()
                == body.mesh_laplacian(tpl, posed.data[b]).tobytes())
    return renderer.l2_sum(lap, _gt_lap(tpl, posed, gt_verts))


def _new_term(tpl, posed, gt_verts):
    return renderer.laplacian_loss(tpl, posed, _gt_lap(tpl, posed, gt_verts))


def _ahead(kind, posed, gt):
    """A consumer of posed built before the term."""
    if kind == "sub":
        return renderer.l2_sum(posed, gt)
    rot = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]],
                   dtype=posed.dtype)
    y = dc.matmul(posed, rot)
    return dc.sum_(dc.mul(y, y))


def _run(term, tpl, kind, dtype, weight, seed):
    """(loss bytes, posed.grad bytes) of ahead + weight * term."""
    rng = np.random.default_rng(seed)
    gt = tpl.verts + 0.05 * rng.standard_normal(tpl.verts.shape)
    posed_data = gt + 0.05 * rng.standard_normal(gt.shape)
    # every third vertex sits on the ground truth, so some differences
    # and gradients are zeros, signed by the weight
    posed_data[::3] = gt[::3]
    posed = dc.Tensor(posed_data.astype(dtype)[None], requires_grad=True)
    gt = gt.astype(dtype)[None]
    first = _ahead(kind, posed, gt) if kind else None
    lap = term(tpl, posed, gt)
    scaled = dc.mul(lap, weight)
    total = scaled if first is None else dc.add(first, scaled)
    dc.backward(total)
    assert posed.grad.dtype == posed.dtype
    return lap.data.tobytes(), total.data.tobytes(), posed.grad.tobytes()


@pytest.mark.parametrize("rig", [_default_figure, _strip],
                         ids=["default_figure", "strip"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", [None, "sub", "matmul"])
@pytest.mark.parametrize("weight", [10.0, -2.5])
def test_node_matches_the_old_graph_bytes(rig, dtype, kind, weight):
    tpl = rig()
    for seed in range(3):
        new = _run(_new_term, tpl, kind, dtype, weight, seed)
        old = _run(_old_term, tpl, kind, dtype, weight, seed)
        assert new == old, seed


def test_node_is_one_tape_node_over_posed_twice():
    tpl = _strip()
    posed = dc.Tensor(tpl.verts[None] + 0.01, requires_grad=True)
    lap = _new_term(tpl, posed, tpl.verts[None])
    assert lap.name == "laplacian" and lap.data.shape == ()
    assert lap._operands == (posed, posed) and lap._needs == (True, True)


def test_node_refuses_a_ground_truth_of_another_dtype_or_shape():
    tpl = _strip()
    posed = dc.Tensor(tpl.verts[None].astype(np.float32), requires_grad=True)
    gt_lap = body.mesh_laplacian(tpl, tpl.verts)[None]
    with pytest.raises(ValueError, match="float32"):
        renderer.laplacian_loss(tpl, posed, gt_lap)
    with pytest.raises(ValueError, match="ground-truth Laplacian"):
        renderer.laplacian_loss(tpl, posed, gt_lap[:, 1:].astype(np.float32))


@pytest.mark.parametrize("rig", [_default_figure, _strip],
                         ids=["default_figure", "strip"])
def test_node_fd_gradcheck(rig):
    tpl = rig()
    rng = np.random.default_rng(4)
    gt_lap = body.mesh_laplacian(
        tpl, tpl.verts + 0.05 * rng.standard_normal(tpl.verts.shape))[None]
    x = (tpl.verts + 0.05 * rng.standard_normal(tpl.verts.shape))[None]
    assert gradcheck(lambda v: renderer.laplacian_loss(tpl, v, gt_lap), [x],
                     sample=60) < 1e-4
