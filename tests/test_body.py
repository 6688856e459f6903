"""Articulation oracles: FK geometry, LBS contracts, Laplacian, atlas."""

import numpy as np
import numpy.testing as npt
import pytest

from dsaa import body, diffcore as dc, synthdata as sd
from fd import gradcheck


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


@pytest.mark.parametrize("B", [1, 8])
def test_fk_of_a_batch_is_the_stack_of_its_poses(B):
    # each pose composes its own chain: a batch of poses gives, byte for
    # byte, the transforms each pose gives alone
    spec = sd.default_scene()
    sk = spec.figure.skeleton
    thetas = np.stack([sd.sample_frame(spec, f"f{k}", 11, extend=1.5)[0]
                       for k in range(B)])
    tf = body.forward_kinematics(sk, thetas)
    assert tf.shape == (B, sk.joint_count, 3, 4)
    assert tf.tobytes() == np.stack(
        [body.forward_kinematics(sk, t) for t in thetas]).tobytes()


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


def test_lbs_array_and_tensor_share_one_formula():
    sk, verts, w = random_rig(5)
    theta = np.random.default_rng(6).uniform(-1.2, 1.2, sk.dof)
    tf = body.forward_kinematics(sk, theta)
    posed = body.lbs_apply(verts, tf, w)
    via_tensor = body.lbs_apply(dc.Tensor(verts), tf, w)
    assert isinstance(posed, np.ndarray) and posed.dtype == np.float64
    assert posed.tobytes() == via_tensor.data.tobytes()


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_laplacian_of_a_batch_is_its_frames_laplacians(dtype):
    # posed frames of the generator's figure: the batch gathers along its
    # vertex axis, so each frame's bytes are those it gets alone
    spec = sd.default_scene()
    frames = []
    for k in range(3):
        theta, _, u = sd.sample_frame(spec, f"f{k}", 7)
        frames.append(sd.frame_mesh(spec, theta, u)[1])
    batch = np.stack(frames).astype(dtype)
    tpl = spec.figure.template
    lap = body.mesh_laplacian(tpl, batch)
    assert lap.dtype == dtype and lap.shape == batch.shape
    assert lap.tobytes() == np.stack(
        [body.mesh_laplacian(tpl, v) for v in batch]).tobytes()


def test_laplacian_isolated_vertex_errors():
    verts = np.zeros((4, 3))
    verts[:, 0] = np.arange(4)
    faces = np.array([[0, 1, 2]])        # vertex 3 isolated
    uvs = np.zeros((4, 2))
    w = np.ones((4, 1))
    mesh = body.TemplateMesh(verts, faces, uvs, w)
    with pytest.raises(ValueError, match="isolated"):
        body.mesh_laplacian(mesh, mesh.verts)


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
