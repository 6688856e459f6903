"""The rasterizer's pair layout (`_span_pairs`) against brute-force
point-to-triangle distances over every face's full window, on random
screen-space meshes with degenerate faces, axis-parallel edges,
off-canvas faces and windows at their cap, and what the margin bounds
at the scene's settings."""

import numpy as np
import pytest

import dsaa.synthdata as sd
from dsaa.diffcore.ops import _expit
from dsaa.renderer import RasterConfig
from dsaa.renderer.raster import (_COVERAGE_TOL, _SPAN_SLACK, _coverage_margin,
                                  _span_pairs, _window_layout)

H, W = 40, 48


def random_faces(seed, F=96, dtype=np.float64):
    """Screen triangles pf [F,3,2] of mixed sizes, some off the canvas,
    with degenerate and axis-parallel faces mixed in."""
    rng = np.random.default_rng(seed)
    centre = rng.uniform((-12.0, -12.0), (W + 12.0, H + 12.0), size=(F, 1, 2))
    size = rng.choice([0.4, 2.0, 6.0, 25.0], size=(F, 1, 1))   # 25 px exceeds the cap
    pf = centre + rng.normal(size=(F, 3, 2)) * size
    k = np.arange(0, F, 12)
    pf[k, 1] = pf[k, 0]                                # a zero-length edge
    pf[k + 1] = pf[k + 1, :1]                          # all three vertices coincide
    pf[k + 2, 2] = pf[k + 2, 0] + 0.3 * (pf[k + 2, 1] - pf[k + 2, 0])   # collinear
    pf[k + 3, 1, 1] = pf[k + 3, 0, 1]                  # a horizontal edge
    pf[k + 4, 2, 0] = pf[k + 4, 1, 0]                  # a vertical edge
    # axis-parallel right triangles with vertices on pixel centres
    pf[k + 5] = np.round(pf[k + 5, :1]) + 0.5 + [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]
    pf[k + 6, 1, 1] = pf[k + 6, 0, 1] + 1e-9           # a nearly horizontal edge
    pf[k + 7, :, 1] = np.round(pf[k + 7, :1, 1]) + 0.5  # flat, on a pixel-centre row
    return pf.astype(dtype)


def segment_distance(px, py, a, b):
    ex, ey = b[0] - a[0], b[1] - a[1]
    ee = ex * ex + ey * ey
    t = ((px - a[0]) * ex + (py - a[1]) * ey) / np.where(ee > 0.0, ee, 1.0)
    t = np.clip(np.where(ee > 0.0, t, 0.0), 0.0, 1.0)
    return np.hypot(px - a[0] - t * ex, py - a[1] - t * ey)


def triangle_distance(pf, px, py):
    """Distance [F,...] from the points (px, py) [F,...] to each filled
    triangle of pf [F,3,2]; zero inside a triangle of nonzero area."""
    v = pf.astype(np.float64).reshape(pf.shape[:2] + (1,) * (px.ndim - 1) + (2,))
    a, b, c = (np.moveaxis(v[:, k], -1, 0) for k in range(3))
    d = np.minimum(np.minimum(segment_distance(px, py, a, b),
                              segment_distance(px, py, b, c)),
                   segment_distance(px, py, c, a))

    def cross(u, w):
        return (w[0] - u[0]) * (py - u[1]) - (w[1] - u[1]) * (px - u[0])

    area = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    sides = np.stack([cross(a, b), cross(b, c), cross(c, a)]) * np.sign(area)
    inside = (area != 0.0) & (sides >= 0.0).all(axis=0)
    return np.where(inside, 0.0, d)


def window_grid(pf, cfg):
    """Every pixel of every face's window: rows, columns [F,Ky,Kx], the
    in-window mask, and the layout."""
    y0, y1, x0, x1 = _window_layout(pf, H, W, cfg)
    Ky, Kx = max(int((y1 - y0).max()), 1), max(int((x1 - x0).max()), 1)
    ys = np.broadcast_to(y0[:, None, None] + np.arange(Ky)[:, None], (len(pf), Ky, Kx))
    xs = np.broadcast_to(x0[:, None, None] + np.arange(Kx), (len(pf), Ky, Kx))
    inwin = (ys < y1[:, None, None]) & (xs < x1[:, None, None])
    return ys, xs, inwin, (y0, y1, x0, x1)


CONFIGS = [RasterConfig(sigma_r=0.3, gamma=0.05),
           RasterConfig(sigma_r=0.08, gamma=0.05, window=12),
           RasterConfig(sigma_r=1.0, gamma=0.05, window=20)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "sharp", "soft"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spans_keep_exactly_the_pairs_within_the_margin(seed, cfg, dtype):
    pf = random_faces(seed, dtype=dtype)
    counts, ys, xs = _span_pairs(pf, H, W, cfg)
    gy, gx, inwin, (y0, y1, x0, x1) = window_grid(pf, cfg)
    assert ((y1 - y0) * (x1 - x0) == 0).any()                     # off the canvas
    assert ((y1 - y0 == cfg.window) & (x1 - x0 == cfg.window)).any()   # at the cap

    face = np.repeat(np.arange(len(pf)), counts)
    assert counts.sum() == ys.size == xs.size
    assert ((ys >= y0[face]) & (ys < y1[face]) & (xs >= x0[face]) & (xs < x1[face])).all()
    kept = np.zeros(inwin.shape, dtype=bool)
    kept[face, ys - y0[face], xs - x0[face]] = True
    assert kept.sum() == ys.size                       # no pair twice

    margin = _coverage_margin(cfg)
    dist = triangle_distance(pf, gx + 0.5, gy + 0.5)
    assert not (inwin & (dist <= margin) & ~kept).any()
    assert dist[kept].max() <= margin + _SPAN_SLACK
    dropped = inwin & ~kept
    assert dropped.sum() > kept.sum() // 4
    coverage = _expit(-dist[dropped] ** 2 / cfg.sigma_r)   # the node's D outside a face
    assert coverage.max() < _COVERAGE_TOL


def test_margin_bounds_a_dropped_pairs_depth_weight():
    # a dropped pair's face weight against the background's 1 is
    # D * exp(zn / gamma) <= exp(1 / gamma - margin^2 / sigma_r)
    cfg = sd.raster_config(sd.SceneSpec())
    bound = np.exp(1.0 / cfg.gamma - _coverage_margin(cfg) ** 2 / cfg.sigma_r)
    assert bound <= 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_pairs_run_face_major_then_row_then_column(seed):
    pf = random_faces(seed)
    counts, ys, xs = _span_pairs(pf, H, W, RasterConfig(sigma_r=0.3, gamma=0.05))
    face = np.repeat(np.arange(len(pf)), counts)
    key = (face * H + ys) * W + xs
    assert (np.diff(key) > 0).all()
    assert (counts == 0).any() and (counts > 0).any()


def test_no_window_keeps_every_canvas_pixel_of_every_face():
    pf = random_faces(3, F=12)
    counts, ys, xs = _span_pairs(pf, H, W, RasterConfig(sigma_r=0.3, gamma=0.05, window=None))
    rows, cols = np.divmod(np.arange(H * W), W)
    assert (counts == H * W).all()
    assert (ys.reshape(12, H * W) == rows).all()
    assert (xs.reshape(12, H * W) == cols).all()


def test_spans_reject_non_finite_coordinates():
    pf = random_faces(4, F=12)
    pf[5, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _span_pairs(pf, H, W, RasterConfig(sigma_r=0.3, gamma=0.05))
