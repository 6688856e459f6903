"""Articulation oracles: FK geometry, LBS contracts, Laplacian, atlas."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from dsaa import body, diffcore as dc
from fd import gradcheck
from obj_oracle import save_obj_oracle


def chain_skeleton(offsets):
    """Straight chain, each joint offset from its parent, identity rest rot."""
    J = len(offsets)
    return body.Skeleton(
        names=tuple(f"j{i}" for i in range(J)),
        parents=np.arange(-1, J - 1),
        rest_rot=np.tile(np.eye(3), (J, 1, 1)),
        rest_t=np.asarray(offsets, dtype=np.float64),
    )


def two_bone():
    return chain_skeleton([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])


# ------------------------------------------------------------------ FK

def test_fk_rest_pose_is_identity():
    sk = chain_skeleton([(0, 0, 0), (1, 0, 0), (0.5, 0.2, 0)])
    tf = body.forward_kinematics(sk, np.zeros(sk.dof))
    for j in range(3):
        npt.assert_allclose(tf[j, :, :3], np.eye(3), atol=1e-15)
        npt.assert_allclose(tf[j, :, 3], 0.0, atol=1e-15)


def test_fk_two_bone_90deg():
    sk = two_bone()
    theta = np.zeros(6)
    theta[2] = np.pi / 2          # root z rotation
    tf = body.forward_kinematics(sk, theta)
    # child rest world position (1,0,0) swings to (0,1,0)
    p = tf[1, :, :3] @ np.array([1.0, 0.0, 0.0]) + tf[1, :, 3]
    npt.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-12)


def test_fk_leaf_rotation_leaves_ancestors():
    sk = chain_skeleton([(0, 0, 0), (1, 0, 0), (1, 0, 0)])
    base = body.forward_kinematics(sk, np.zeros(9))
    theta = np.zeros(9)
    theta[6:9] = [0.3, -0.7, 1.1]  # leaf only
    tf = body.forward_kinematics(sk, theta)
    for j in (0, 1):
        npt.assert_array_equal(tf[j, :, :3], base[j, :, :3])
        npt.assert_array_equal(tf[j, :, 3], base[j, :, 3])


def test_fk_rejects_wrong_length():
    with pytest.raises(ValueError, match="theta"):
        body.forward_kinematics(two_bone(), np.zeros(5))


# ------------------------------------------------------------------ LBS

def random_rig(seed=0, V=40):
    r = np.random.default_rng(seed)
    sk = chain_skeleton([(0, 0, 0), (0.5, 0, 0), (0.5, 0, 0), (0, 0.4, 0)])
    verts = r.normal(size=(V, 3))
    w = r.random(size=(V, 4)) + 1e-3
    w /= w.sum(axis=1, keepdims=True)
    return sk, verts, w


def test_lbs_identity_transforms():
    sk, verts, w = random_rig(1)
    tf = body.forward_kinematics(sk, np.zeros(sk.dof))
    npt.assert_allclose(body.lbs_apply(verts, tf, w), verts, atol=1e-12)


def test_lbs_unit_weight_follows_joint():
    sk, verts, w = random_rig(2, V=5)
    w1 = np.zeros_like(w)
    w1[:, 2] = 1.0
    r = np.random.default_rng(3)
    theta = r.uniform(-1.0, 1.0, sk.dof)
    tf = body.forward_kinematics(sk, theta)
    posed = body.lbs_apply(verts, tf, w1)
    expect = verts @ tf[2, :, :3].T + tf[2, :, 3]
    npt.assert_allclose(posed, expect, atol=1e-12)


def test_lbs_half_half_translations():
    sk = two_bone()
    tf = np.concatenate([np.tile(np.eye(3), (2, 1, 1)),
                         np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])[:, :, None]],
                        axis=2)
    verts = np.array([[0.3, 0.4, 0.5]])
    w = np.array([[0.5, 0.5]])
    posed = body.lbs_apply(verts, tf, w)
    npt.assert_allclose(posed, verts + np.array([0.5, 1.0, 0.0]), atol=1e-15)


def test_lbs_shape_mismatch_errors():
    sk, verts, w = random_rig(4)
    tf = body.forward_kinematics(sk, np.zeros(sk.dof))
    with pytest.raises(ValueError):
        body.lbs_apply(verts, tf, w[:, :3])


def test_unpose_identity_pose():
    sk, verts, w = random_rig(5)
    tf = body.forward_kinematics(sk, np.zeros(sk.dof))
    npt.assert_allclose(body.lbs_unpose(verts, tf, w), verts, atol=1e-12)


def test_unpose_roundtrip():
    sk, verts, w = random_rig(6)
    r = np.random.default_rng(7)
    theta = r.uniform(-1.2, 1.2, sk.dof)
    tf = body.forward_kinematics(sk, theta)
    posed = body.lbs_apply(verts, tf, w)
    back = body.lbs_unpose(posed, tf, w)
    assert np.max(np.abs(back - verts)) < 1e-9


def test_unpose_candy_wrapper_is_singular():
    sk = chain_skeleton([(0, 0, 0), (0, 0, 0)])
    theta = np.zeros(6)
    theta[3] = np.pi                 # child twisted 180 degrees about x
    tf = body.forward_kinematics(sk, theta)
    verts = np.array([[0.0, 0.5, 0.0]])
    w = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError, match="vertex 0"):
        body.lbs_unpose(verts, tf, w)


def test_rigid_equivariance_via_root():
    sk, verts, w = random_rig(8)
    r = np.random.default_rng(9)
    theta0 = r.uniform(-1.0, 1.0, sk.dof)
    theta0[:3] = 0.0
    root = np.array([0.4, -0.9, 1.1])
    theta1 = theta0.copy()
    theta1[:3] = root
    base = body.lbs_apply(verts, body.forward_kinematics(sk, theta0), w)
    posed = body.lbs_apply(verts, body.forward_kinematics(sk, theta1), w)
    G = body.euler_xyz(root)         # root sits at the origin
    npt.assert_allclose(posed, base @ G.T, atol=1e-9)


def test_lbs_vertex_gradients_fd():
    sk, verts, w = random_rig(11, V=6)
    theta = np.random.default_rng(12).uniform(-1.0, 1.0, sk.dof)
    tf = body.forward_kinematics(sk, theta)
    probe = np.random.default_rng(13).normal(size=(6, 3))

    def loss(v):
        return dc.sum_(dc.mul(body.lbs_apply(v, tf, w), probe))

    assert gradcheck(loss, [verts]) < 1e-4


# ------------------------------------------------------------- Laplacian

def grid_mesh(n=5):
    """Regular planar grid with a consistent diagonal split."""
    idx = lambda i, j: i * n + j
    verts = np.array([[j, i, 0.0] for i in range(n) for j in range(n)])
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            faces.append([idx(i, j), idx(i, j + 1), idx(i + 1, j + 1)])
            faces.append([idx(i, j), idx(i + 1, j + 1), idx(i + 1, j)])
    uvs = np.array([[j / (n - 1), i / (n - 1)] for i in range(n) for j in range(n)])
    w = np.ones((n * n, 1))
    return body.TemplateMesh(verts, np.array(faces), uvs, w)


def test_laplacian_zero_on_grid_interior():
    mesh = grid_mesh()
    L = body.mesh_laplacian(mesh, mesh.verts)
    center = 2 * 5 + 2
    npt.assert_allclose(L[center], 0.0, atol=1e-12)


def test_laplacian_translation_invariance_exact():
    mesh = grid_mesh()
    c = np.array([3.25, -1.5, 0.125])    # exactly representable shifts
    La = body.mesh_laplacian(mesh, mesh.verts)
    Lb = body.mesh_laplacian(mesh, mesh.verts + c)
    npt.assert_array_equal(La, Lb)


def test_laplacian_isolated_vertex_errors():
    verts = np.zeros((4, 3))
    verts[:, 0] = np.arange(4)
    faces = np.array([[0, 1, 2]])        # vertex 3 isolated
    uvs = np.zeros((4, 2))
    w = np.ones((4, 1))
    mesh = body.TemplateMesh(verts, faces, uvs, w)
    with pytest.raises(ValueError, match="isolated"):
        body.mesh_laplacian(mesh, mesh.verts)


def test_laplacian_differentiable_fd():
    mesh = grid_mesh(4)
    probe = np.random.default_rng(14).normal(size=mesh.verts.shape)

    def loss(v):
        return dc.sum_(dc.mul(body.mesh_laplacian(mesh, v), probe))

    assert gradcheck(loss, [mesh.verts]) < 1e-4


# ----------------------------------------------------------------- atlas

def test_position_map_centroid_texel():
    uvs = np.array([[0.125, 0.125], [0.625, 0.125], [0.375, 0.875]])
    faces = np.array([[0, 1, 2]])
    verts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [1.0, 3.0, -1.0]])
    atlas = body.build_atlas(uvs, faces, 12, 12)
    pos = body.render_position_map(verts, faces, atlas)
    valid = atlas.valid
    # UV centroid (0.375, 0.375) is exactly the center of texel (4,4)
    assert valid[4, 4]
    npt.assert_allclose(pos[:, 4, 4], verts.mean(axis=0), atol=1e-12)
    # uncovered texels are zero sentinels
    assert not valid[0, 11] and pos[:, 0, 11].sum() == 0.0


def test_position_map_translation():
    uvs = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]])
    faces = np.array([[0, 1, 2]])
    r = np.random.default_rng(15)
    verts = r.normal(size=(3, 3))
    atlas = body.build_atlas(uvs, faces, 16, 16)
    p0 = body.render_position_map(verts, faces, atlas)
    valid = atlas.valid
    c = np.array([0.5, -2.0, 1.25])
    p1 = body.render_position_map(verts + c, faces, atlas)
    shift = p1[:, valid] - p0[:, valid]
    npt.assert_allclose(shift, np.broadcast_to(c[:, None], shift.shape), atol=1e-12)


def test_atlas_rejects_overlap():
    uvs = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9],
                    [0.1, 0.15], [0.9, 0.15], [0.5, 0.95]])
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="injective"):
        body.build_atlas(uvs, faces, 16, 16)


def test_atlas_allows_shared_edges():
    uvs = np.array([[0.05, 0.05], [0.95, 0.05], [0.95, 0.95], [0.05, 0.95]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    atlas = body.build_atlas(uvs, faces, 16, 16)
    assert atlas.valid.mean() > 0.5


def test_atlas_resolution_floor():
    uvs = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]])
    with pytest.raises(ValueError, match="resolution"):
        body.build_atlas(uvs, np.array([[0, 1, 2]]), 4, 4)


# -------------------------------------------------------------------- I/O

def test_obj_weights_skeleton_roundtrip(tmp_path):
    mesh = grid_mesh(3)
    body.save_mesh(tmp_path / "m.obj", tmp_path / "m.weights", mesh)
    back = body.load_mesh(tmp_path / "m.obj", tmp_path / "m.weights")
    npt.assert_array_equal(back.verts, mesh.verts)
    npt.assert_array_equal(back.faces, mesh.faces)
    npt.assert_array_equal(back.uvs, mesh.uvs)
    npt.assert_array_equal(back.weights, mesh.weights)

    sk = chain_skeleton([(0, 0, 0), (0.5, 0.25, 0), (1.0 / 3.0, 0, 0.1)])
    body.save_skeleton(tmp_path / "sk.txt", sk)
    sk2 = body.load_skeleton(tmp_path / "sk.txt")
    assert sk2.names == sk.names
    npt.assert_array_equal(sk2.parents, sk.parents)
    npt.assert_array_equal(sk2.rest_rot, sk.rest_rot)
    npt.assert_array_equal(sk2.rest_t, sk.rest_t)


def _obj_bytes_match_oracle(tmp_path, verts, faces, uvs):
    body.save_obj(tmp_path / "new.obj", verts, faces, uvs)
    save_obj_oracle(tmp_path / "old.obj", verts, faces, uvs)
    return (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes()


def test_save_obj_matches_loop_writer_on_default_figure(tmp_path):
    from dsaa.synthdata import build_figure
    tpl = build_figure().template
    assert _obj_bytes_match_oracle(tmp_path, tpl.verts, tpl.faces, tpl.uvs)


def test_save_obj_matches_loop_writer_on_edge_floats(tmp_path):
    tiny = np.finfo(np.float64).smallest_subnormal
    edge = [-0.0, 0.0, tiny, -tiny, 3 * tiny, 1e300, -1e300, 1.0, -2.0, 1e16,
            1e17, 0.1, 1.0 / 3.0, -123456789.0, np.nextafter(1.0, 2.0), 5e-324]
    rng = np.random.default_rng(5)
    verts = rng.permutation(np.resize(edge, 48)).reshape(16, 3)
    uvs = rng.permutation(np.resize(edge[::-1], 32)).reshape(16, 2)
    faces = rng.integers(0, 16, size=(9, 3))
    assert _obj_bytes_match_oracle(tmp_path, verts, faces, uvs)
    back, _, back_uv = body.load_obj(tmp_path / "new.obj")
    assert back.tobytes() == verts.tobytes() and back_uv.tobytes() == uvs.tobytes()


def test_save_obj_of_an_empty_mesh_is_empty(tmp_path):
    assert _obj_bytes_match_oracle(tmp_path, np.zeros((0, 3)),
                                   np.zeros((0, 3), dtype=np.intp), np.zeros((0, 2)))
    assert (tmp_path / "new.obj").read_bytes() == b""


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_weights_rejects_empty_sidecar(tmp_path, text):
    p = tmp_path / "m.weights"
    p.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"weights sidecar {p} holds no rows")):
        body.load_weights(p)


def test_obj_rejects_mismatched_vt(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvt 1 0\nvt 0 1\nf 1/2 2/1 3/3\n")
    with pytest.raises(ValueError, match="v/vt"):
        body.load_obj(p)


def test_mesh_validation():
    verts = np.zeros((3, 3))
    faces = np.array([[0, 1, 2]])
    uvs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    good_w = np.ones((3, 1))
    body.TemplateMesh(verts, faces, uvs, good_w)
    with pytest.raises(ValueError, match="sum to 1"):
        body.TemplateMesh(verts, faces, uvs, np.full((3, 1), 0.5))
    with pytest.raises(ValueError, match="unit square"):
        body.TemplateMesh(verts, faces, uvs * 2.0, good_w)
    with pytest.raises(ValueError, match="out-of-range"):
        body.TemplateMesh(verts, np.array([[0, 1, 5]]), uvs, good_w)
