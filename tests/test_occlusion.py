"""Visibility-map oracles: analytic wall integral, convexity, enclosure,
grid-vs-brute ray casting (random, traversal edge cases, and pair lists
split into blocks), the bake against the brute oracle, shared ray sets,
maps independent of the pair block size, and a golden map of the posed
default figure."""

import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from dsaa import body
from dsaa.synthdata import default_scene
from dsaa.occlusion import (AOSamplerConfig, compute_ao, texel_geometry,
                            texel_rays, UniformGrid)
from dsaa.occlusion import ao as ao_module
from ao_oracle import ao_oracle, ray_any_hit


def wall_visibility(d, h):
    # cosine-weighted visibility at a ground point a horizontal distance d
    # from a perpendicular wall of height h; derived in closed form and
    # cross-checked against adaptive quadrature and a 2e6-sample MC run
    return 0.5 * (1.0 + d / np.hypot(d, h))


def quad_mesh(p0, p1, p2, p3):
    return np.asarray([p0, p1, p2, p3], dtype=np.float64), np.array([[0, 1, 2], [0, 2, 3]])


def ground_wall(d, h, extent=60.0):
    gv, gf = quad_mesh((-extent, 0, -extent), (extent, 0, -extent),
                       (extent, 0, extent), (-extent, 0, extent))
    wv, wf = quad_mesh((d, 0, -extent), (d, h, -extent), (d, h, extent), (d, 0, extent))
    return np.vstack([gv, wv]), np.vstack([gf, wf + 4])


def uv_sphere(nu=16, nv=12, radius=1.0, center=(0.0, 0.0, 0.0), rect=(0.0, 0.0, 1.0, 1.0)):
    """Lat-long sphere with duplicated seam column; UVs packed into rect."""
    u0, v0, du, dv = rect
    verts, uvs = [], []
    for i in range(nv + 1):
        phi = np.pi * i / nv
        for j in range(nu + 1):
            th = 2 * np.pi * j / nu
            verts.append([center[0] + radius * np.sin(phi) * np.cos(th),
                          center[1] + radius * np.cos(phi),
                          center[2] + radius * np.sin(phi) * np.sin(th)])
            uvs.append([u0 + du * j / nu, v0 + dv * i / nv])
    idx = lambda i, j: i * (nu + 1) + j
    faces = []
    for i in range(nv):
        for j in range(nu):
            a, b, c, d_ = idx(i, j), idx(i, j + 1), idx(i + 1, j + 1), idx(i + 1, j)
            faces.append([a, b, c])
            faces.append([a, c, d_])
    return np.asarray(verts), np.asarray(faces), np.asarray(uvs)


def as_template(verts, faces, uvs):
    return body.TemplateMesh(verts, faces, uvs, np.ones((len(verts), 1)))


def bake(mesh, config, res):
    """compute_ao on a fresh res x res atlas of the mesh's own UVs."""
    atlas = body.build_atlas(mesh.uvs, mesh.faces, res, res)
    return compute_ao(mesh, texel_rays(config, atlas))


def composite_scene():
    """Two spheres and an overhanging plate, with disjoint UV islands."""
    v1, f1, u1 = uv_sphere(12, 9, radius=0.5, rect=(0.03, 0.03, 0.42, 0.42))
    v2, f2, u2 = uv_sphere(10, 8, radius=0.35, center=(0.75, 0.3, 0.1),
                           rect=(0.55, 0.03, 0.4, 0.4))
    pv, pf = quad_mesh((-0.6, 1.0, -0.6), (0.9, 1.0, -0.6), (0.9, 1.0, 0.7), (-0.6, 1.0, 0.7))
    pu = np.array([[0.05, 0.55], [0.45, 0.55], [0.45, 0.9], [0.05, 0.9]])
    verts = np.vstack([v1, v2, pv])
    faces = np.vstack([f1, f2 + len(v1), pf + len(v1) + len(v2)])
    uvs = np.vstack([u1, u2, pu])
    return as_template(verts, faces, uvs)


# ------------------------------------------------------------------ oracle

def test_config_validation():
    with pytest.raises(ValueError):
        AOSamplerConfig(rays=0)


def test_oracle_open_halfspace_is_one():
    verts, faces = ground_wall(1.0, 0.0)[0][:4], np.array([[0, 1, 2], [0, 2, 3]])
    v = ao_oracle(np.zeros(3), np.array([0.0, 1.0, 0.0]), verts, faces, 64, seed=1)
    assert v == 1.0


def test_oracle_enclosed_box_is_zero():
    c = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], float)
    faces = np.array([[0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5],
                      [0, 4, 5], [0, 5, 1], [2, 3, 7], [2, 7, 6],
                      [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3]])
    v = ao_oracle(np.zeros(3), np.array([0.0, 1.0, 0.0]), c, faces, 128, seed=2)
    assert v == 0.0


def test_oracle_matches_wall_closed_form():
    for d, h in [(0.5, 1.0), (1.0, 1.0), (0.3, 1.5)]:
        verts, faces = ground_wall(d, h)
        v = ao_oracle(np.zeros(3), np.array([0.0, 1.0, 0.0]), verts, faces, 256, seed=7)
        assert abs(v - wall_visibility(d, h)) < 0.03, (d, h, v)


def test_oracle_near_touching_plates():
    verts, faces = quad_mesh((-1, 1e-3, -1), (1, 1e-3, -1), (1, 1e-3, 1), (-1, 1e-3, 1))
    v = ao_oracle(np.zeros(3), np.array([0.0, 1.0, 0.0]), verts, faces, 256, seed=3)
    assert v < 0.01


# ------------------------------------------------------------- ray casting

def test_grid_matches_brute_force():
    tpl = composite_scene()
    rng = np.random.default_rng(11)
    origins = rng.normal(size=(2000, 3)) * 1.5
    dirs = rng.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    grid = UniformGrid(tpl.verts, tpl.faces)
    fast = grid.any_hit(origins, dirs)
    slow = ray_any_hit(origins, dirs, tpl.verts, tpl.faces)
    npt.assert_array_equal(fast, slow)


def grid_matches_brute(verts, faces, origins, dirs):
    """UniformGrid.any_hit equals ray_any_hit; returns the hits."""
    fast = UniformGrid(verts, faces).any_hit(origins, dirs)
    slow = ray_any_hit(origins, dirs, verts, faces)
    npt.assert_array_equal(fast, slow)
    return fast


def unit_rows(rng, n):
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_grid_small_triangles_far_along_rays():
    # one triangle, smaller than a cell, across each ray some cells ahead
    # of its origin: a walk that strays from the ray's cells misses it
    rng = np.random.default_rng(12)
    n = 800
    origins = rng.uniform(-1.0, 1.0, size=(n, 3))
    dirs = unit_rows(rng, n)
    centers = origins + rng.uniform(0.3, 2.0, size=(n, 1)) * dirs
    verts = (centers[:, None] + 0.02 * rng.normal(size=(n, 3, 3))).reshape(-1, 3)
    faces = np.arange(len(verts)).reshape(-1, 3)
    assert (UniformGrid(verts, faces).cell > 0.06).all()
    hits = grid_matches_brute(verts, faces, origins, dirs)
    assert 0.2 < hits.mean() < 0.9


def test_grid_axis_aligned_directions():
    tpl = composite_scene()
    rng = np.random.default_rng(3)
    axes = np.vstack([np.eye(3), -np.eye(3)])                   # two zeros
    diag = np.array([[a, b, 0.0] for a in (1, -1) for b in (1, -1)]) / np.sqrt(2)
    diag = np.vstack([diag, np.roll(diag, 1, axis=1), np.roll(diag, 2, axis=1)])
    dirs = np.vstack([axes, diag])                             # one zero
    origins = rng.normal(size=(300, 3)) * 0.8
    o = np.repeat(origins, len(dirs), axis=0)
    d = np.tile(dirs, (len(origins), 1))
    hits = grid_matches_brute(tpl.verts, tpl.faces, o, d)
    assert hits.any() and not hits.all()


def test_grid_origins_on_cell_planes():
    tpl = composite_scene()
    grid = UniformGrid(tpl.verts, tpl.faces)
    rng = np.random.default_rng(4)
    n = 600
    k = rng.integers(1, grid.res, size=(n, 3))          # interior planes
    on_planes = grid.lo + k * grid.cell
    origins = rng.normal(size=(n, 3)) * 0.8
    one_axis = rng.integers(0, 3, size=n)
    origins[np.arange(n), one_axis] = on_planes[np.arange(n), one_axis]
    origins[: n // 3] = on_planes[: n // 3]              # on three planes
    dirs = unit_rows(rng, n)
    dirs[::4] = np.eye(3)[one_axis[::4]]                 # along a plane
    hits = grid_matches_brute(tpl.verts, tpl.faces, origins, dirs)
    assert hits.any() and not hits.all()


def test_grid_rays_through_vertex_on_cell_corner():
    # the test triangle fills one of the eight cells around a grid corner,
    # with a vertex on that corner; most rays through the vertex never
    # enter its cell, so only the guard band lists it where they pass
    verts = np.array([[-1, -1, -1], [-0.9, -1, -1], [-1, -0.9, -1],
                      [1, 1, 1], [0.9, 1, 1], [1, 0.9, 1],
                      [0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]], dtype=float)
    faces = np.arange(9).reshape(3, 3)
    grid = UniformGrid(verts, faces)
    corner = grid.lo + grid.res // 2 * grid.cell
    verts[6:] = corner + grid.cell * np.array([[0, 0, 0], [0.5, 0.2, 0.1],
                                               [0.1, 0.5, 0.3]])
    rng = np.random.default_rng(10)
    u = unit_rows(rng, 400)
    origins = corner + 0.7 * np.linalg.norm(grid.cell) * u
    hits = grid_matches_brute(verts, faces, origins, -u)
    assert hits.mean() > 0.5


def test_grid_origins_outside_box_and_misses():
    tpl = composite_scene()
    rng = np.random.default_rng(5)
    center = tpl.verts.mean(axis=0)
    origins = center + 6.0 * unit_rows(rng, 800)
    toward = center + rng.normal(size=(800, 3)) * 0.4 - origins
    toward /= np.linalg.norm(toward, axis=1, keepdims=True)
    away = -toward
    hits = grid_matches_brute(tpl.verts, tpl.faces, np.vstack([origins, origins]),
                              np.vstack([toward, away]))
    assert hits[:800].any() and not hits[800:].any()


def test_grid_flat_single_plane_mesh():
    n = 6
    xs = np.linspace(-1.0, 1.0, n + 1)
    verts = np.array([[x, 0.3, z] for x in xs for z in xs])
    idx = lambda i, j: i * (n + 1) + j
    faces = np.array([f for i in range(n) for j in range(n)
                      for f in ([idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)],
                                [idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)])])
    assert UniformGrid(verts, faces).res[1] == 1
    rng = np.random.default_rng(7)
    origins = rng.uniform(-1.5, 1.5, size=(900, 3))
    origins[600:, 1] = 0.3                               # in the plane
    dirs = unit_rows(rng, 900)
    dirs[300:, 1] = 0.0                                  # parallel to it
    dirs[300:] /= np.linalg.norm(dirs[300:], axis=1, keepdims=True)
    hits = grid_matches_brute(verts, faces, origins, dirs)
    assert hits[:300].any() and not hits[:300].all()


def test_grid_single_triangle():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0], [0.1, 1.0, 0.3]])
    faces = np.array([[0, 1, 2]])
    rng = np.random.default_rng(8)
    origins = rng.normal(size=(1000, 3)) + np.array([0.3, 0.3, 0.0])
    dirs = unit_rows(rng, 1000)
    hits = grid_matches_brute(verts, faces, origins, dirs)
    assert hits.any() and not hits.all()


def test_grid_blocks_large_steps_and_many_rays(monkeypatch):
    # 20,000 rays in one walk, with steps whose pair lists span several
    # blocks
    tpl = composite_scene()
    rng = np.random.default_rng(13)
    n = 20000
    origins = tpl.verts[rng.integers(0, len(tpl.verts), n)]
    origins = origins + 0.05 * rng.normal(size=(n, 3))
    dirs = unit_rows(rng, n)
    grid = UniformGrid(tpl.verts, tpl.faces)
    pairs = []                                  # pairs listed per step
    real = ao_module.ragged_arange

    def counting(cnt):
        pairs.append(int(cnt.sum()))
        return real(cnt)

    monkeypatch.setattr(ao_module, "ragged_arange", counting)
    fast = grid.any_hit(origins, dirs)
    npt.assert_array_equal(fast, ray_any_hit(origins, dirs, tpl.verts,
                                             tpl.faces))
    assert max(pairs) > 2 * ao_module._PAIR_BLOCK
    assert fast.any() and not fast.all()


def test_argmin3_matches_argmin():
    # the walk's axis choice, ties, infinities and NaN included
    rng = np.random.default_rng(14)
    t = rng.choice([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf, np.nan],
                   size=(3, 4000))
    npt.assert_array_equal(ao_module._argmin3(t), np.argmin(t, axis=0))


def _posed_default_figure():
    fig = default_scene(image_size=32, seed=3).figure
    theta = np.random.default_rng(21).uniform(-0.4, 0.4, fig.skeleton.dof)
    tpl = fig.template
    return body.lbs_apply(tpl.verts, body.forward_kinematics(fig.skeleton, theta),
                          tpl.weights), tpl.faces


def test_vertex_normals_scatter_is_the_per_corner_loop():
    # one flat scatter adds each row's face normals in the order three
    # per-corner np.add.at calls did, so the sums keep their bytes
    verts, faces = _posed_default_figure()
    rng = np.random.default_rng(22)
    for v in (verts, rng.normal(size=verts.shape)):
        a, b, c = v[faces[:, 0]], v[faces[:, 1]], v[faces[:, 2]]
        fn = np.cross(b - a, c - a)
        ref = np.zeros_like(v)
        for k in range(3):
            np.add.at(ref, faces[:, k], fn)
        norms = np.linalg.norm(ref, axis=1)
        keep = norms > 1e-300
        ref[keep] /= norms[keep, None]
        assert ao_module.vertex_normals(v, faces).tobytes() == ref.tobytes()


def test_world_directions_are_the_einsum():
    rng = np.random.default_rng(23)
    verts, faces = _posed_default_figure()
    normals = [ao_module.vertex_normals(verts, faces)[:300],
               rng.normal(size=(257, 3))]
    for n in normals:
        frames = ao_module.build_frames(n)
        local = rng.random((len(n), 64, 3)) * rng.choice([1e-3, 1.0, 1e3])
        assert (ao_module._to_world(frames, local).tobytes()
                == np.einsum("tij,tnj->tni", frames, local).tobytes())


def test_grid_empty_face_list_never_hits():
    rng = np.random.default_rng(9)
    origins = rng.normal(size=(50, 3))
    dirs = unit_rows(rng, 50)
    faces = np.zeros((0, 3), dtype=int)
    hits = grid_matches_brute(np.zeros((0, 3)), faces, origins, dirs)
    assert not hits.any()


# -------------------------------------------------------------- compute_ao

def test_convex_sphere_is_fully_visible():
    tpl = as_template(*uv_sphere(16, 12))
    ao = bake(tpl, AOSamplerConfig(rays=256, seed=5), 16)
    assert ao.valid.any()
    assert ao.values[ao.valid].min() >= 0.98
    npt.assert_array_equal(ao.values[~ao.valid], 0.0)


def test_degenerate_face_texels_flagged():
    # left island maps to a collinear (zero-area) 3D triangle
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0],
                      [0, 0, 1], [1, 0, 1], [0, 1, 1]], float)
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    uvs = np.array([[0.05, 0.05], [0.45, 0.05], [0.05, 0.45],
                    [0.55, 0.05], [0.95, 0.05], [0.55, 0.45]])
    tpl = as_template(verts, faces, uvs)
    atlas = body.build_atlas(uvs, faces, 16, 16)
    ao = bake(tpl, AOSamplerConfig(rays=16, seed=1), 16)
    degen = atlas.face_idx == 0
    good = atlas.face_idx == 1
    assert degen.any() and good.any()
    assert not ao.valid[degen].any()
    npt.assert_array_equal(ao.values[degen], 0.0)
    assert ao.valid[good].all()


def test_compute_ao_matches_brute_oracle():
    tpl = composite_scene()
    cfg = AOSamplerConfig(rays=256, seed=9)
    atlas = body.build_atlas(tpl.uvs, tpl.faces, 16, 16)
    ao = compute_ao(tpl, texel_rays(cfg, atlas))
    pts, nrm, ok = texel_geometry(tpl, atlas)
    flat = np.flatnonzero(atlas.valid.reshape(-1))
    usable = np.flatnonzero(ok)
    rng = np.random.default_rng(21)
    pick = rng.choice(usable, size=50, replace=False)
    worst = 0.0
    for k in pick:
        i, j = divmod(int(flat[k]), 16)
        ref = ao_oracle(pts[k], nrm[k], tpl.verts, tpl.faces, 256, seed=100 + int(k))
        worst = max(worst, abs(ref - ao.values[i, j]))
    assert worst < 0.05, worst


def test_fixed_seed_is_bit_identical():
    tpl = composite_scene()
    cfg = AOSamplerConfig(rays=32, seed=23)
    a = bake(tpl, cfg, 16)
    b = bake(tpl, cfg, 16)
    npt.assert_array_equal(a.values, b.values)
    npt.assert_array_equal(a.valid, b.valid)


def test_default_figure_golden_map():
    # digests of the posed default figure's map, as written before the
    # grid walk replaced the all-cells slab test
    fig = default_scene().figure
    tpl, sk = fig.template, fig.skeleton
    theta = 0.5 * np.sin(np.arange(3 * len(sk.names)))
    posed = body.lbs_apply(tpl.verts, body.forward_kinematics(sk, theta),
                           tpl.weights)
    ao = bake(body.TemplateMesh(posed, tpl.faces, tpl.uvs, tpl.weights),
              AOSamplerConfig(rays=64), 16)
    assert hashlib.sha256(ao.values.tobytes()).hexdigest() == (
        "d156da2d2740808b1aeffee7f25bbc2710c0d03145576137f17cf8e9a2a9eaa2")
    assert hashlib.sha256(ao.valid.tobytes()).hexdigest() == (
        "cd5f51b072e013b794b71f99ce265dbfe55e18b8646ca06bdab4a61afb601127")


@pytest.mark.parametrize("n", [0, 1, 26000])
def test_cell_order_is_the_stable_argsort_on_random_keys(n):
    rng = np.random.default_rng(n)
    for high in (7 * 32 ** 3, 300, 1 << 16, (1 << 16) + 3):
        cid = rng.integers(0, high, size=n)
        npt.assert_array_equal(ao_module._stable_cell_order(cid),
                               np.argsort(cid, kind="stable"))


def test_cell_order_is_the_stable_argsort_on_the_default_figure(monkeypatch):
    seen = []
    real = ao_module._stable_cell_order

    def recording(cid):
        seen.append(cid)
        return real(cid)

    monkeypatch.setattr(ao_module, "_stable_cell_order", recording)
    tpl = default_scene().figure.template
    UniformGrid(tpl.verts, tpl.faces)
    (cid,) = seen
    assert len(cid) > 10000 and cid.max() < 7 * 32 ** 3
    npt.assert_array_equal(real(cid), np.argsort(cid, kind="stable"))


def test_shared_texel_rays_give_the_same_maps():
    # one set of local ray directions serves every pose
    fig = default_scene().figure
    tpl, sk = fig.template, fig.skeleton
    cfg = AOSamplerConfig(rays=16, seed=3)
    atlas = body.build_atlas(tpl.uvs, tpl.faces, 16, 16)
    rays = texel_rays(cfg, atlas)
    for k in range(2):
        theta = 0.4 * np.sin(np.arange(3 * len(sk.names)) + k)
        posed = body.lbs_apply(tpl.verts, body.forward_kinematics(sk, theta),
                               tpl.weights)
        mesh = body.TemplateMesh(posed, tpl.faces, tpl.uvs, tpl.weights)
        fresh = bake(mesh, cfg, 16)
        shared = compute_ao(mesh, rays)
        assert shared.values.tobytes() == fresh.values.tobytes()
        npt.assert_array_equal(shared.valid, fresh.valid)


def test_maps_do_not_depend_on_the_pair_block(monkeypatch):
    # blocks of 1 and 7 pairs cut every step's pair list at every place;
    # the reference tests each step's whole list in one block
    fig = default_scene().figure
    tpl, sk = fig.template, fig.skeleton
    theta = 0.5 * np.sin(np.arange(3 * len(sk.names)))
    posed = body.lbs_apply(tpl.verts, body.forward_kinematics(sk, theta),
                           tpl.weights)
    mesh = body.TemplateMesh(posed, tpl.faces, tpl.uvs, tpl.weights)
    atlas = body.build_atlas(tpl.uvs, tpl.faces, 16, 16)
    rays = texel_rays(AOSamplerConfig(rays=8), atlas)
    default = ao_module._PAIR_BLOCK
    monkeypatch.setattr(ao_module, "_PAIR_BLOCK", 1 << 40)
    ref = compute_ao(mesh, rays)
    for block in (1, 7, default):
        monkeypatch.setattr(ao_module, "_PAIR_BLOCK", block)
        got = compute_ao(mesh, rays)
        assert got.values.tobytes() == ref.values.tobytes(), block
        assert got.valid.tobytes() == ref.valid.tobytes(), block
