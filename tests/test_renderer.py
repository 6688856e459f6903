"""Rasterizer oracles: interior color, background, FD gradients, hard-raster
agreement, occlusion ordering, loss identities."""

import numpy as np
import numpy.testing as npt
import pytest

from dsaa import diffcore as dc, renderer, body
from dsaa.renderer import raster
from dsaa.renderer.losses import LAM_GEOM, LAM_LAP
from fd import gradcheck


def front_cam(side=32, f=32.0):
    return renderer.Camera(fx=f, fy=f, cx=side / 2, cy=side / 2,
                           rot=np.eye(3), t=np.zeros(3), height=side, width=side)


def quad_scene(z=2.5, half=1.0, zshift=0.0):
    """Two triangles forming a screen-facing square around the optical axis."""
    verts = np.array([[-half, -half, z], [half, -half, z],
                      [half, half, z + zshift], [-half, half, z + zshift]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    uvs = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return verts, faces, uvs


def flat_texture(c, size=8):
    return np.broadcast_to(np.asarray(c, dtype=np.float64)[:, None, None],
                           (3, size, size)).copy()


DENSE = renderer.RasterConfig(sigma_r=0.3, gamma=0.05, window=None)


def test_interior_pixel_equals_texture_color():
    cam = front_cam()
    verts, faces, uvs = quad_scene()
    c = (0.25, 0.5, 0.75)
    rt = renderer.rasterize(dc.Tensor(verts), faces, uvs,
                            dc.Tensor(flat_texture(c)), cam, DENSE)
    # probe a pixel deep inside one triangle, off the quad's internal
    # diagonal (the soft mask legitimately dips where two coverages meet)
    px = rt.image.data[:, 16, 8]
    npt.assert_allclose(px, c, atol=1e-6)
    assert rt.mask.data[16, 8] > 0.999


def test_empty_scene_is_background():
    cam = front_cam()
    cfg = renderer.RasterConfig(sigma_r=0.3, gamma=0.05, window=None)
    rt = renderer.rasterize(dc.Tensor(np.zeros((0, 3))), np.zeros((0, 3), dtype=int),
                            np.zeros((0, 2)), dc.Tensor(flat_texture((1, 1, 1))), cam, cfg)
    assert rt.image.shape == (3, cam.height, cam.width)
    npt.assert_array_equal(rt.image.data, 0.0)
    npt.assert_array_equal(rt.mask.data, 0.0)


def test_all_behind_camera_errors():
    cam = front_cam()
    verts, faces, uvs = quad_scene(z=-3.0)
    with pytest.raises(ValueError, match="behind"):
        renderer.rasterize(dc.Tensor(verts), faces, uvs,
                           dc.Tensor(flat_texture((1, 0, 0))), cam, DENSE)


@pytest.mark.parametrize("window", [16, None])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_zero_area_faces_cover_no_pixel(window, dtype):
    # three coincident vertices, and three collinear ones on the pixel
    # centre row y = 16.5 (z = 2 keeps the projection exact): a face
    # without area has no inside, so its coverage falls off like an edge's,
    # from sigmoid(0) = 0.5 at the pixel centres that lie on it
    cam = front_cam()
    cfg = renderer.RasterConfig(sigma_r=0.3, gamma=0.05, window=window)
    point = np.array([[0.1, 0.2, 2.0]] * 3)
    row = np.array([[-0.5, 0.03125, 2.0], [0.0, 0.03125, 2.0],
                    [0.5, 0.03125, 2.0]])
    faces = np.array([[0, 1, 2]])
    uvs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for verts in (point, row):
        rt = renderer.rasterize(dc.Tensor(verts.astype(dtype)), faces, uvs,
                                dc.Tensor(flat_texture((1, 0, 0)).astype(dtype)),
                                cam, cfg)
        assert rt.mask.data.max() <= 0.5


def test_mask_in_unit_interval_and_deterministic():
    cam = front_cam()
    verts, faces, uvs = quad_scene(zshift=0.4)
    r = np.random.default_rng(0)
    tex = r.random(size=(3, 8, 8))

    def run():
        rt = renderer.rasterize(dc.Tensor(verts), faces, uvs, dc.Tensor(tex), cam, DENSE)
        return rt.image.data.copy(), rt.mask.data.copy()

    img1, m1 = run()
    img2, m2 = run()
    npt.assert_array_equal(img1, img2)
    npt.assert_array_equal(m1, m2)
    assert m1.min() >= 0.0 and m1.max() <= 1.0
    assert np.isfinite(img1).all()


def hard_raster(verts, faces, uvs, tex, cam):
    """Brute-force reference: nearest covering triangle wins each pixel."""
    H, W = cam.height, cam.width
    img = np.zeros((3, H, W))
    zbuf = np.full((H, W), np.inf)
    Xc = verts @ cam.rot.T + cam.t
    sx = cam.fx * Xc[:, 0] / Xc[:, 2] + cam.cx
    sy = cam.fy * Xc[:, 1] / Xc[:, 2] + cam.cy
    for tri in faces:
        ax, ay, az = sx[tri[0]], sy[tri[0]], Xc[tri[0], 2]
        bx, by, bz = sx[tri[1]], sy[tri[1]], Xc[tri[1], 2]
        cx_, cy_, cz = sx[tri[2]], sy[tri[2]], Xc[tri[2], 2]
        den = (bx - ax) * (cy_ - ay) - (cx_ - ax) * (by - ay)
        if abs(den) < 1e-12:
            continue
        for i in range(H):
            for j in range(W):
                px, py = j + 0.5, i + 0.5
                u = ((px - ax) * (cy_ - ay) - (cx_ - ax) * (py - ay)) / den
                v = ((bx - ax) * (py - ay) - (px - ax) * (by - ay)) / den
                w0 = 1 - u - v
                if u < 0 or v < 0 or w0 < 0:
                    continue
                z = w0 * az + u * bz + v * cz
                if z < zbuf[i, j]:
                    zbuf[i, j] = z
                    uv = w0 * uvs[tri[0]] + u * uvs[tri[1]] + v * uvs[tri[2]]
                    t = dc.texture_sample(dc.Tensor(tex), uv[None, :]).data[0]
                    img[:, i, j] = t
    return img, np.isfinite(zbuf)


def test_sharp_limit_agrees_with_hard_raster():
    cam = front_cam()
    verts, faces, uvs = quad_scene(zshift=0.3)
    r = np.random.default_rng(1)
    tex = r.random(size=(3, 8, 8))
    cfg = renderer.RasterConfig(sigma_r=1e-4, gamma=1e-3, window=None)
    rt = renderer.rasterize(dc.Tensor(verts), faces, uvs, dc.Tensor(tex), cam, cfg)
    ref_img, ref_cov = hard_raster(verts, faces, uvs, tex, cam)
    close = np.all(np.abs(rt.image.data - ref_img) < 2.0 / 255.0, axis=0)
    assert close.mean() >= 0.95
    mask_agree = (rt.mask.data > 0.5) == ref_cov
    assert mask_agree.mean() >= 0.95


def test_near_triangle_dominates_small_gamma():
    cam = front_cam()
    # two stacked triangles, the nearer one red, the farther one blue
    verts = np.array([[-1, -1, 2.0], [1, -1, 2.0], [0, 1, 2.0],
                      [-1, -1, 3.0], [1, -1, 3.0], [0, 1, 3.0]])
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    uvs = np.array([[0.1, 0.1], [0.3, 0.1], [0.2, 0.3],
                    [0.6, 0.6], [0.9, 0.6], [0.75, 0.9]])
    tex = np.zeros((3, 16, 16))
    tex[0, :8, :] = 1.0        # red where v < 0.5
    tex[2, 8:, :] = 1.0        # blue where v > 0.5
    cfg = renderer.RasterConfig(sigma_r=0.3, gamma=1e-3, window=None)
    rt = renderer.rasterize(dc.Tensor(verts), faces, uvs, dc.Tensor(tex), cam, cfg)
    px = rt.image.data[:, 16, 16]
    npt.assert_allclose(px, [1.0, 0.0, 0.0], atol=1e-3)


def test_windowed_matches_dense():
    cam = front_cam()
    verts, faces, uvs = quad_scene(zshift=0.5, half=0.6)
    r = np.random.default_rng(2)
    tex = r.random(size=(3, 8, 8))
    dense = renderer.rasterize(dc.Tensor(verts), faces, uvs, dc.Tensor(tex), cam, DENSE)
    win = renderer.rasterize(dc.Tensor(verts), faces, uvs, dc.Tensor(tex), cam,
                             renderer.RasterConfig(sigma_r=0.3, gamma=0.05, window=24))
    npt.assert_allclose(win.image.data, dense.image.data, atol=5e-4)
    npt.assert_allclose(win.mask.data, dense.mask.data, atol=5e-4)


def skewed(verts, rng, scale=0.013):
    # FD needs generic position: the exactly symmetric quad puts pixel
    # centers on the diagonal edge line, where the clipped-barycentric
    # clamp sits on its (measure-zero) kink and central differences
    # straddle two subgradient branches
    return verts + rng.normal(size=verts.shape) * scale


def test_fd_gradients_verts_and_texture():
    # pixel gradients vs central differences on 100 random probe pixels
    cam = front_cam(side=24, f=24.0)
    verts, faces, uvs = quad_scene(zshift=0.3, half=0.8)
    r = np.random.default_rng(3)
    verts = skewed(verts, r)
    tex = r.random(size=(3, 6, 6))
    probe = np.zeros((3, 24, 24))
    flat = probe.reshape(-1)
    flat[r.choice(flat.size, size=100, replace=False)] = r.normal(size=100)

    def loss(v, t):
        rt = renderer.rasterize(v, faces, uvs, t, cam, DENSE)
        return dc.sum_(dc.mul(rt.image, probe))

    err = gradcheck(loss, [verts, tex], eps=1e-4, floor=1e-4)
    assert err < 1e-3, f"render FD rel err {err:.3e}"


def test_fd_gradients_mask_path():
    cam = front_cam(side=16, f=16.0)
    verts, faces, uvs = quad_scene(half=0.7)
    r = np.random.default_rng(4)
    verts = skewed(verts, r)
    probe = r.normal(size=(16, 16))
    tex = flat_texture((0.3, 0.6, 0.9), size=4)

    def loss(v):
        rt = renderer.rasterize(v, faces, uvs, dc.Tensor(tex), cam, DENSE)
        return dc.sum_(dc.mul(rt.mask, probe))

    err = gradcheck(loss, [verts], eps=1e-4, floor=1e-4)
    assert err < 1e-3, f"mask FD rel err {err:.3e}"


# ------------------------------------------------------------------ losses

def grid_template(n=4):
    idx = lambda i, j: i * n + j
    verts = np.array([[j, i, 0.0] for i in range(n) for j in range(n)])
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            faces.append([idx(i, j), idx(i, j + 1), idx(i + 1, j + 1)])
            faces.append([idx(i, j), idx(i + 1, j + 1), idx(i + 1, j)])
    uvs = np.array([[j / (n - 1), i / (n - 1)] for i in range(n) for j in range(n)])
    return body.TemplateMesh(verts, np.array(faces), uvs, np.ones((n * n, 1)))


def test_losses_zero_when_equal():
    tpl = grid_template()
    gt_img = np.random.default_rng(5).random((3, 8, 8))
    gt_mask = np.random.default_rng(6).random((8, 8))
    rt = renderer.RenderTarget(dc.Tensor(gt_img.copy()), dc.Tensor(gt_mask.copy()))
    total, parts = renderer.losses(rt, gt_img, gt_mask)
    assert parts == {"img": 0.0, "mask": 0.0}
    assert float(total.data) == 0.0
    lap = renderer.laplacian_loss(tpl, dc.Tensor(tpl.verts[None].copy()),
                                  body.mesh_laplacian(tpl, tpl.verts)[None])
    assert float(lap.data) == 0.0


def test_losses_phase1_zero_when_geometry_matches():
    tpl = grid_template()
    total, parts = renderer.mesh_loss(dc.Tensor(tpl.verts[None].copy()),
                                      tpl.verts[None],
                                      body.mesh_laplacian(tpl, tpl.verts)[None],
                                      tpl)
    assert parts == {"geom": 0.0, "lap": 0.0}
    assert float(total.data) == 0.0


def test_mesh_loss_is_weighted_geom_plus_laplacian():
    # the mesh objective is exactly LAM_GEOM*L_G + LAM_LAP*L_lap, summed in
    # that order; the image objective reports its two terms and no others
    tpl = grid_template()
    rng = np.random.default_rng(7)
    # a batch of one frame
    posed = dc.Tensor(tpl.verts + 0.1 * rng.standard_normal((1,) + tpl.verts.shape))
    gt_lap = body.mesh_laplacian(tpl, tpl.verts)[None]
    total, parts = renderer.mesh_loss(posed, tpl.verts, gt_lap, tpl)
    geom = renderer.l2_sum(posed, tpl.verts)
    lap = renderer.laplacian_loss(tpl, posed, gt_lap)
    ref = dc.add(dc.mul(geom, LAM_GEOM), dc.mul(lap, LAM_LAP))
    assert total.data.tobytes() == ref.data.tobytes()
    assert parts == {"geom": float(geom.data), "lap": float(lap.data)}
    assert parts["geom"] > 0.0 and parts["lap"] > 0.0

    rt = renderer.RenderTarget(dc.Tensor(rng.random((3, 8, 8))),
                               dc.Tensor(rng.random((8, 8))))
    _, parts = renderer.losses(rt, np.zeros((3, 8, 8)), np.zeros((8, 8)))
    assert sorted(parts) == ["img", "mask"]


def test_l1_uniform_offset_identity():
    H = W = 8
    gt_img = np.full((3, H, W), 0.4)
    delta = 0.125
    rt = renderer.RenderTarget(dc.Tensor(gt_img + delta), dc.Tensor(np.zeros((H, W))))
    _, parts = renderer.losses(rt, gt_img, np.zeros((H, W)))
    npt.assert_allclose(parts["img"], 3 * H * W * abs(delta), rtol=1e-12)


def test_losses_shape_mismatch_errors():
    rt = renderer.RenderTarget(dc.Tensor(np.zeros((3, 8, 8))), dc.Tensor(np.zeros((8, 8))))
    with pytest.raises(ValueError, match="mismatch"):
        renderer.losses(rt, np.zeros((3, 9, 9)), np.zeros((8, 8)))


def test_camera_validation_and_projection():
    with pytest.raises(ValueError, match="focal"):
        renderer.Camera(fx=-1, fy=1, cx=0, cy=0, rot=np.eye(3), t=np.zeros(3),
                        height=8, width=8)
    cam = front_cam()
    # a point on the optical axis lands on the principal point
    xy, z = renderer.project(cam, dc.Tensor(np.array([[0.0, 0.0, 2.0]])))
    npt.assert_allclose(xy.data, [[16.0, 16.0]], atol=1e-12)
    npt.assert_allclose(z.data, [2.0])


def test_look_at_points_camera_at_target():
    R, t = renderer.look_at(eye=(3.0, 1.0, -2.0), target=(0.0, 0.0, 0.0))
    cam = renderer.Camera(fx=32, fy=32, cx=16, cy=16, rot=R, t=t, height=32, width=32)
    xy, z = renderer.project(cam, dc.Tensor(np.zeros((1, 3))))
    npt.assert_allclose(xy.data, [[16.0, 16.0]], atol=1e-9)
    assert z.data[0] > 0


# ------------------------------------------------------- per-face windows

MIX_CAM = front_cam(side=64, f=64.0)


def to_world(sx, sy, z):
    """World points at depth z that MIX_CAM projects to screen (sx, sy)."""
    c = MIX_CAM
    return np.stack([(np.asarray(sx) - c.cx) * z / c.fx,
                     (np.asarray(sy) - c.cy) * z / c.fy,
                     np.full(np.shape(sx), z)], axis=-1)


def small_mesh():
    """A 6x6 grid of 2.5-pixel cells (72 small triangles) near the top-left
    corner of MIX_CAM's canvas."""
    g = 8.0 + 2.5 * np.arange(7)
    sx, sy = np.meshgrid(g, g)
    verts = to_world(sx.ravel(), sy.ravel(), 2.5)
    k = (np.arange(6)[:, None] * 7 + np.arange(6)[None, :]).ravel()
    faces = np.concatenate([np.stack([k, k + 1, k + 8], 1),
                            np.stack([k, k + 8, k + 7], 1)])
    uvs = np.stack([sx.ravel(), sy.ravel()], 1) / 64.0
    return verts, faces, uvs


def mixed_mesh():
    """small_mesh plus one large triangle far from it: 12 x 6 pixels on
    screen, so its window needs 19 x 13 pixels."""
    verts, faces, uvs = small_mesh()
    big = to_world(np.array([40.0, 52.0, 44.0]), np.array([40.0, 41.0, 46.0]), 3.0)
    faces = np.concatenate([faces, len(verts) + np.array([[0, 1, 2]])])
    uvs = np.concatenate([uvs, [[0.6, 0.6], [0.9, 0.6], [0.7, 0.8]]])
    return np.concatenate([verts, big]), faces, uvs


def screen_faces(verts, faces):
    screen, _ = renderer.project(MIX_CAM, dc.Tensor(verts))
    return screen.data[faces]


def expected_windows(pf, cfg, side=64):
    """Per-face windows by the documented rule: per axis, the face's bbox
    widened by the coverage margin, ceil + 1 pixels capped at cfg.window,
    centered on the box and clipped to the canvas. Rows (y0, y1), then
    columns (x0, x1)."""
    margin = np.sqrt(cfg.sigma_r * np.log(1.0 / raster._COVERAGE_TOL)) + 1.0
    out = []
    for axis in (1, 0):
        lo = pf[:, :, axis].min(axis=1) - margin
        hi = pf[:, :, axis].max(axis=1) + margin
        k = np.minimum(np.ceil(hi - lo).astype(int) + 1, cfg.window)
        o = np.floor(0.5 * (lo + hi)).astype(int) - k // 2
        out += [np.clip(o, 0, side), np.clip(o + k, 0, side)]
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_far_large_face_leaves_other_windows_alone(dtype):
    # every face sizes its own window, so adding a large triangle changes
    # no pixel outside that triangle's window, not even in the tails
    cfg = renderer.RasterConfig(sigma_r=0.3, gamma=0.05)
    tex = np.random.default_rng(4).random(size=(3, 8, 8)).astype(dtype)
    renders = []
    for verts, faces, uvs in (small_mesh(), mixed_mesh()):
        rt = renderer.rasterize(dc.Tensor(verts.astype(dtype)), faces, uvs,
                                dc.Tensor(tex), MIX_CAM, cfg)
        renders.append((rt.image.data, rt.mask.data))
    verts, faces, _ = mixed_mesh()
    y0, y1, x0, x1 = expected_windows(screen_faces(verts, faces)[-1:], cfg)
    outside = np.ones((64, 64), dtype=bool)
    outside[y0[0]:y1[0], x0[0]:x1[0]] = False
    assert outside.sum() > 3000
    (img_a, mask_a), (img_b, mask_b) = renders
    npt.assert_array_equal(img_a[:, outside], img_b[:, outside])
    npt.assert_array_equal(mask_a[outside], mask_b[outside])
    assert not np.array_equal(mask_a, mask_b)


def test_window_layout_gives_each_face_its_own_capped_need():
    cfg = renderer.RasterConfig(sigma_r=0.3, gamma=0.05)
    verts, faces, _ = mixed_mesh()
    pf = screen_faces(verts, faces)
    y0, y1, x0, x1 = raster._window_layout(pf, 64, 64, cfg)
    for got, want in zip((y0, y1, x0, x1), expected_windows(pf, cfg)):
        npt.assert_array_equal(got, want)
    # small faces need 9 x 9, the large one 19 x 13, capped to 16 x 13
    assert set(zip(x1[:-1] - x0[:-1], y1[:-1] - y0[:-1])) == {(9, 9)}
    assert (x1[-1] - x0[-1], y1[-1] - y0[-1]) == (16, 13)


def test_mixed_windows_match_dense():
    verts, faces, uvs = mixed_mesh()
    tex = np.random.default_rng(5).random(size=(3, 8, 8))
    dense = renderer.rasterize(dc.Tensor(verts), faces, uvs, dc.Tensor(tex), MIX_CAM, DENSE)
    win = renderer.rasterize(dc.Tensor(verts), faces, uvs, dc.Tensor(tex), MIX_CAM,
                             renderer.RasterConfig(sigma_r=0.3, gamma=0.05, window=24))
    npt.assert_allclose(win.image.data, dense.image.data, atol=5e-4)
    npt.assert_allclose(win.mask.data, dense.mask.data, atol=5e-4)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_off_canvas_faces_add_nothing(dtype):
    # a large triangle between two triangles whose windows miss the canvas:
    # the large one's window is capped inside it, so the first pair of its
    # run carries real gradient terms that an empty neighbouring run must
    # not pick up; the off-canvas faces add no pixel and get no gradient
    big = to_world(np.array([8.0, 60.0, 30.0]), np.array([8.0, 10.0, 60.0]), 2.5)
    left = to_world(np.array([-40.0, -30.0, -35.0]), np.array([20.0, 20.0, 30.0]), 2.5)
    right = to_world(np.array([110.0, 120.0, 115.0]), np.array([20.0, 20.0, 30.0]), 2.5)
    uv3 = np.array([[0.1, 0.1], [0.9, 0.2], [0.5, 0.9]])
    tex = np.random.default_rng(6).random(size=(3, 8, 8)).astype(dtype)
    probe = np.random.default_rng(7).normal(size=(4, 64, 64)).astype(dtype)
    cfg = renderer.RasterConfig(sigma_r=0.3, gamma=0.05)

    def run(verts, faces, uvs):
        v = dc.Tensor(verts.astype(dtype), requires_grad=True)
        t = dc.Tensor(tex, requires_grad=True)
        rt = renderer.rasterize(v, faces, uvs, t, MIX_CAM, cfg)
        dc.backward(dc.add(dc.sum_(dc.mul(rt.image, probe[:3])),
                           dc.sum_(dc.mul(rt.mask, probe[3]))))
        return rt.image.data, rt.mask.data, v.grad, t.grad

    tri = np.array([[0, 1, 2]])
    verts = np.concatenate([left, big, right])
    faces = np.concatenate([tri, tri + 3, tri + 6])
    y0, y1, x0, x1 = raster._window_layout(screen_faces(verts, faces), 64, 64, cfg)
    assert list((y1 - y0) * (x1 - x0)) == [0, 16 * 16, 0]
    image, mask, gv, gt = run(verts, faces, np.concatenate([uv3] * 3))
    alone = run(big, tri, uv3)
    assert image.tobytes() == alone[0].tobytes() and mask.tobytes() == alone[1].tobytes()
    assert gv[3:6].tobytes() == alone[2].tobytes() and gt.tobytes() == alone[3].tobytes()
    assert np.abs(alone[2]).min() > 0.0
    npt.assert_array_equal(gv[:3], 0.0)
    npt.assert_array_equal(gv[6:], 0.0)


@pytest.mark.parametrize("kwargs", [
    {"window": 1}, {"window": 0}, {"window": -4}, {"window": 2.5}, {"window": True},
])
def test_raster_config_rejects_bad_window_settings(kwargs):
    with pytest.raises(ValueError):
        renderer.RasterConfig(sigma_r=0.3, gamma=0.05, **kwargs)


def test_raster_config_accepts_window_settings():
    for window in (2, 16, np.int64(8), None):
        assert renderer.RasterConfig(sigma_r=0.3, gamma=0.05, window=window).window == window
