import dataclasses
import shutil
from pathlib import Path

import numpy as np
import pytest

import dsaa.synthdata as sd
from dsaa.avatar import AvatarConfig
from dsaa.body import build_atlas, render_position_map
from dsaa.conditioning import build_masks
from dsaa.harness import TrainData
from dsaa.imgio import write_pgm, write_ppm


@pytest.fixture(scope="module")
def figure():
    return sd.SceneSpec.figure


@pytest.fixture(scope="module")
def small_spec():
    # 32px images keep dataset-level tests quick; geometry is unchanged
    return sd.SceneSpec(image_size=32)


@pytest.fixture(scope="module")
def small_dataset(small_spec, tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "set"
    manifest = sd.generate_dataset(dataclasses.replace(small_spec, seed=5),
                                   root, 6)
    return manifest


# ---------------------------------------------------------------- figure

def test_figure_shape_and_rig(figure):
    tpl, skel = figure.template, figure.skeleton
    assert 500 <= tpl.verts.shape[0] <= 700
    assert len(skel.names) == 11
    assert {"root", "spine", "head"} <= set(skel.names)
    # every joint rigidly owns some surface
    np.testing.assert_array_equal(tpl.weights.max(axis=0), np.ones(11))
    assert figure.island_of.shape == (tpl.verts.shape[0],)
    assert set(figure.island_of) == set(range(len(figure.island_names)))
    assert figure.head_island in figure.island_names
    assert figure.head_island not in figure.clothed
    # islands are disjoint rectangles
    rects = [figure.islands[n] for n in figure.island_names]
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            assert a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]
    # vertex UVs actually sit inside their island
    for vi, isl in enumerate(figure.island_of):
        u0, v0, u1, v1 = figure.islands[figure.island_names[isl]]
        u, v = tpl.uvs[vi]
        assert u0 - 1e-12 <= u <= u1 + 1e-12
        assert v0 - 1e-12 <= v <= v1 + 1e-12


def test_figure_deterministic(figure):
    again = sd.build_figure()
    np.testing.assert_array_equal(figure.template.verts, again.template.verts)
    np.testing.assert_array_equal(figure.template.weights, again.template.weights)
    assert sd.figure_bytes(figure) == sd.figure_bytes(again)


def test_shared_figure_is_read_only(figure):
    # every spec and every TrainData share one figure
    assert sd.SceneSpec(seed=1).figure is figure is sd.default_scene().figure
    skel = figure.skeleton
    for a in (figure.template.verts, figure.template.faces,
              figure.template.uvs, figure.template.weights, skel.parents,
              skel.rest_rot, skel.rest_t, skel.rest_world_rot,
              skel.rest_world_t, figure.island_of, figure.normals):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_figure_atlas_coverage(figure):
    for size in (32, 64):
        atlas = build_atlas(figure.template.uvs, figure.template.faces, size, size)
        assert 0.5 <= atlas.valid.mean() <= 1.0


def test_figure_mask_areas(figure):
    atlas = build_atlas(figure.template.uvs, figure.template.faces, 32, 32)
    masks = build_masks(figure.template, figure.skeleton, atlas,
                        tau=AvatarConfig.tau, n_face=4,
                        head_joint=AvatarConfig.head_joint)
    area = {n: float(m.sum()) for n, m in zip(masks.names, masks.data)}
    # distal joints influence less surface than the root
    for joint in ("elbow_l", "elbow_r", "knee_l", "knee_r"):
        assert area[f"pose:{joint}:rx"] < area["pose:root:rx"]
    # face channels live on the head island (plus the 1-texel dilation)
    u0, v0, u1, v1 = figure.islands[figure.head_island]
    face = np.array(masks.face())
    ii, jj = np.nonzero(face.max(axis=0) > 0)
    cu, cv = (jj + 0.5) / 32, (ii + 0.5) / 32
    pad = 2.0 / 32
    assert np.all((cu > u0 - pad) & (cu < u1 + pad)
                  & (cv > v0 - pad) & (cv < v1 + pad))


# ------------------------------------------------------------------ scene

def test_scene_fields_are_what_a_dataset_varies():
    assert [f.name for f in dataclasses.fields(sd.SceneSpec)] \
        == ["n_face", "n_cameras", "image_size", "rho_spurious", "seed"]
    spec = sd.SceneSpec(seed=2)
    assert (spec.focal, spec.tex_size) == (62.0, 64)    # constants still read
    assert dataclasses.replace(spec, seed=3).seed == 3
    with pytest.raises(TypeError, match="focal"):
        sd.SceneSpec(focal=50.0)


def test_scene_spec_validation():
    for bad in ({"rho_spurious": 1.5}, {"rho_spurious": -0.1},
                {"n_cameras": 0}, {"n_face": 0}, {"image_size": 7}):
        with pytest.raises(ValueError):
            sd.SceneSpec(**bad)


def test_scene_constants_meet_the_bounds_once_checked(figure):
    # these were checks on settable fields; the constants must still
    # meet them
    spec = sd.SceneSpec
    pr = np.asarray(spec.pose_range)
    assert pr.shape == (len(figure.skeleton.names),)
    assert np.all(pr >= 0.0)
    assert spec.novel_margin > 1.0
    # 1.2 rad keeps blended skinning transforms well conditioned
    assert np.all(pr * spec.novel_margin <= 1.2 + 1e-12)
    assert 0 <= spec.corr_scalar < 3 * len(figure.skeleton.names)
    assert pr[spec.corr_scalar // 3] > 0.0     # rho > 0 divides by it
    assert spec.tex_size >= 8
    for name in ("face_range", "cam_radius", "focal", "sigma_r", "gamma_r"):
        assert getattr(spec, name) > 0.0, name


def test_scene_cameras(small_spec):
    cams = sd.scene_cameras(small_spec)
    assert len(cams) == small_spec.n_cameras
    assert cams[0].cx == small_spec.image_size / 2.0
    # the figure is visible from every ring camera
    theta = np.zeros(33)
    _, posed = sd.frame_mesh(small_spec, theta, 0.5)
    _, masks = sd.render_views(small_spec, posed,
                               sd.frame_texture(small_spec, 0.5, np.zeros(4)))
    for m in masks:
        assert m.sum() > 0.02 * m.size


def test_sampler_theta_u_independent(small_spec):
    n = 1000
    thetas = np.empty((n, 33))
    us = np.empty(n)
    for i in range(n):
        thetas[i], _, us[i] = sd.sample_frame(small_spec, f"{i:06d}", 2)
    r = np.repeat(np.asarray(small_spec.pose_range), 3)
    assert np.all(np.abs(thetas) <= r)
    assert np.all((us >= 0.0) & (us <= 1.0))
    corr = np.corrcoef(thetas.T, us)[-1, :-1]
    assert np.abs(corr).max() < 0.08


# correlation injection: rho_spurious couples the hidden factor to one pose
# scalar

def test_inject_correlation_zero_is_bitwise_identity(small_spec):
    coupled = dataclasses.replace(small_spec, rho_spurious=0.0)
    for i in range(50):
        a = sd.sample_frame(small_spec, f"{i:06d}", 7)
        b = sd.sample_frame(coupled, f"{i:06d}", 7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]


def test_inject_correlation_one_is_deterministic(small_spec):
    coupled = dataclasses.replace(small_spec, rho_spurious=1.0)
    r = np.repeat(np.asarray(small_spec.pose_range), 3)
    for i in range(20):
        theta, _, u = sd.sample_frame(coupled, f"{i:06d}", 7)
        assert u == theta[coupled.corr_scalar] / (2 * r[coupled.corr_scalar]) + 0.5


def test_inject_correlation_strength(small_spec):
    coupled = dataclasses.replace(small_spec, rho_spurious=0.9)
    n = 1000
    tk = np.empty(n)
    us = np.empty(n)
    for i in range(n):
        theta, _, us[i] = sd.sample_frame(coupled, f"{i:06d}", 2)
        tk[i] = theta[coupled.corr_scalar]
    assert 0.85 <= np.corrcoef(tk, us)[0, 1] <= 0.95
    for rho in (-0.1, 1.1):
        with pytest.raises(ValueError, match="rho_spurious"):
            dataclasses.replace(small_spec, rho_spurious=rho)


# ------------------------------------------------------- wrinkles, texture

def test_wrinkle_support(small_spec):
    fig = small_spec.figure
    clothed = np.isin(fig.island_of,
                      [fig.island_names.index(n) for n in fig.clothed])
    d0 = sd.wrinkle_displacement(small_spec, 0.0)
    d1 = sd.wrinkle_displacement(small_spec, 1.0)
    assert np.all(d0[~clothed] == 0.0) and np.all(d1[~clothed] == 0.0)
    assert np.abs(d1 - d0).max() > 0.5 * small_spec.wrinkle_amp
    # posed meshes at equal pose differ exactly on the wrinkle support
    theta, _, _ = sd.sample_frame(small_spec, "000000", 0)
    _, p0 = sd.frame_mesh(small_spec, theta, 0.0)
    _, p1 = sd.frame_mesh(small_spec, theta, 1.0)
    diff = np.abs(p1 - p0).sum(axis=1)
    assert np.all(diff[~clothed] == 0.0)
    assert np.count_nonzero(diff[clothed]) > 0.9 * clothed.sum()


def test_texture_regions(small_spec):
    fig = small_spec.figure
    face = np.array([0.5, -0.3, 0.8, -0.1])
    t0 = sd.frame_texture(small_spec, 0.0, face)
    t1 = sd.frame_texture(small_spec, 1.0, face)
    size = small_spec.tex_size
    centers = (np.arange(size) + 0.5) / size
    cu, cv = np.meshgrid(centers, centers, indexing="xy")

    def rect_mask(name):
        u0, v0, u1, v1 = fig.islands[name]
        return (cu >= u0) & (cu <= u1) & (cv >= v0) & (cv <= v1)

    clothed = np.zeros((size, size), dtype=bool)
    for name in fig.clothed:
        clothed |= rect_mask(name)
    d_u = np.abs(t1 - t0).max(axis=0)
    assert np.all(d_u[~clothed] == 0.0)  # head and gaps ignore u
    assert d_u[clothed].mean() > 0.05
    # face vector only touches the head island
    t2 = sd.frame_texture(small_spec, 0.0, -face)
    d_f = np.abs(t2 - t0).max(axis=0)
    assert np.all(d_f[~rect_mask(fig.head_island)] == 0.0)
    assert d_f.max() > 0.05
    for t in (t0, t1, t2):
        assert t.min() >= 0.0 and t.max() <= 1.0
    with pytest.raises(ValueError):
        sd.frame_texture(small_spec, 0.0, np.zeros(3))


# ----------------------------------------------------------------- dataset

def test_generate_dataset_deterministic(small_spec, small_dataset, tmp_path):
    other = tmp_path / "again"
    sd.generate_dataset(dataclasses.replace(small_spec, seed=5), other, 6)
    base = Path(small_dataset.root)
    rel = sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
    assert rel == sorted(p.relative_to(other) for p in other.rglob("*")
                         if p.is_file())
    for p in rel:
        assert (base / p).read_bytes() == (other / p).read_bytes(), p


def test_dataset_layout_and_manifest(small_dataset):
    root = Path(small_dataset.root)
    assert (root / "manifest.txt").exists()
    frame = root / "frames" / "000000"
    cams = range(small_dataset.spec.n_cameras)
    assert sorted(p.name for p in frame.iterdir()) == sorted(
        [f"cam{k}.ppm" for k in cams] + [f"cam{k}_mask.pgm" for k in cams])
    loaded = sd.load_manifest(root)
    assert loaded.spec_hash == small_dataset.spec_hash
    assert [e.id for e in loaded.frames] == [e.id for e in small_dataset.frames]
    rec = sd.load_frame(loaded, "000003")
    want = sd.sample_frame(loaded.spec, "000003", loaded.spec.seed)
    np.testing.assert_array_equal(rec.theta, want[0])
    np.testing.assert_array_equal(rec.face, want[1])
    assert rec.u == want[2]
    assert rec.verts.shape == loaded.spec.figure.template.verts.shape
    want_verts = sd.frame_mesh(loaded.spec, rec.theta, rec.u)[1]
    assert rec.verts.dtype == want_verts.dtype
    assert rec.verts.tobytes() == want_verts.tobytes()
    assert rec.images[0].shape == (3, 32, 32)


def test_dataset_root_holds_only_manifest_and_frames(small_dataset):
    # the template and skeleton are SceneSpec.figure
    root = Path(small_dataset.root)
    assert sorted(p.name for p in root.iterdir()) == ["frames", "manifest.txt"]


def test_stale_files_are_ignored(small_dataset, tmp_path):
    # rig files, per-frame meshes and factor files left in a dataset
    # directory are not read
    root = tmp_path / "old"
    shutil.copytree(small_dataset.root, root)
    for name in ("template.obj", "template.weights", "skeleton.txt"):
        (root / name).write_text("garbage 1 2\nf x/y\n")
    ids = small_dataset.ids()
    for fid in ids:
        for name in ("mesh.obj", "theta.txt", "f.txt", "u.txt"):
            (root / "frames" / fid / name).write_text("garbage 1 2\nf x/y\n")
    data = TrainData(root)
    fresh = sd.load_manifest(small_dataset.root)
    spec = small_dataset.spec
    for fid in ids:
        got, want = data.frame(fid).verts, sd.load_frame(fresh, fid).verts
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), fid
        theta, face, u = sd.sample_frame(spec, fid, spec.seed)
        fr = data.frame(fid)
        assert fr.theta.tobytes() == theta.tobytes(), fid
        assert fr.face.tobytes() == face.tobytes() and fr.u == u, fid
    fig = sd.build_figure()
    for key in ("verts", "faces", "uvs", "weights"):
        got, want = getattr(data.template, key), getattr(fig.template, key)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
    assert data.skeleton.names == fig.skeleton.names
    for key in ("parents", "rest_rot", "rest_t"):
        got, want = getattr(data.skeleton, key), getattr(fig.skeleton, key)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key


def test_pos_map_renders_the_frames_canonical_mesh(small_dataset):
    # the encoder reads frame_mesh's own canonical mesh, not one recovered
    # from the posed mesh by inverting the skinning
    data = TrainData(small_dataset.root)
    assert data.geo_res == 32
    atlas = build_atlas(data.template.uvs, data.template.faces, 32, 32)
    for fid in small_dataset.ids():
        fr = data.frame(fid)
        canonical, posed = sd.frame_mesh(small_dataset.spec, fr.theta, fr.u)
        assert fr.canonical.tobytes() == canonical.tobytes()
        assert fr.verts.tobytes() == posed.tobytes()
        want = render_position_map(canonical, data.template.faces, atlas)
        got = data.pos_map(fid)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), fid


def test_manifest_tamper_detected(small_dataset, tmp_path):
    root = Path(small_dataset.root)
    copy = tmp_path / "tampered"
    copy.mkdir()
    text = (root / "manifest.txt").read_text()
    (copy / "manifest.txt").write_text(
        text.replace("spec.rho_spurious = 0.0", "spec.rho_spurious = 0.5"))
    with pytest.raises(ValueError, match="hash"):
        sd.load_manifest(copy)
    (copy / "manifest.txt").write_text(text + "bogus = 1\n")
    with pytest.raises(ValueError, match="unknown manifest keys"):
        sd.load_manifest(copy)


def test_format_1_manifest_is_refused(small_dataset, tmp_path):
    # a dataset written when the scene constants were manifest lines
    (tmp_path / "manifest.txt").write_text(
        (Path(small_dataset.root) / "manifest.txt").read_text()
        .replace("format = dsaa-dataset-2", "format = dsaa-dataset-1"))
    with pytest.raises(ValueError,
                       match="must declare 'format = dsaa-dataset-2'"):
        sd.load_manifest(tmp_path)


def test_edited_scene_constant_refuses_old_datasets(small_dataset,
                                                    monkeypatch):
    # the constants are in no manifest line, so only the hash catches a
    # dataset whose ground truth the code no longer regenerates
    assert sd.load_manifest(small_dataset.root).spec_hash \
        == small_dataset.spec_hash
    monkeypatch.setattr(sd.SceneSpec, "wrinkle_amp", 0.036)
    with pytest.raises(ValueError, match="manifest hash does not match"):
        sd.load_manifest(small_dataset.root)


def test_generate_dataset_validates(small_spec, tmp_path):
    with pytest.raises(ValueError):
        sd.generate_dataset(small_spec, tmp_path / "x", 1)


def test_registration_bit_exact(tmp_path):
    # re-rendering the stored mesh with the regenerated texture must
    # quantize to exactly the bytes on disk, for every frame and camera
    spec = sd.SceneSpec(seed=3)
    manifest = sd.generate_dataset(spec, tmp_path / "set", 2)
    for fid in manifest.ids():
        rec = sd.load_frame(manifest, fid)
        tex = sd.frame_texture(spec, rec.u, rec.face)
        images, masks = sd.render_views(spec, rec.verts, tex)
        for k in range(spec.n_cameras):
            write_ppm(tmp_path / "re.ppm", images[k])
            write_pgm(tmp_path / "re.pgm", masks[k])
            stored = manifest.root / "frames" / fid / f"cam{k}.ppm"
            assert (tmp_path / "re.ppm").read_bytes() == stored.read_bytes()
            stored = manifest.root / "frames" / fid / f"cam{k}_mask.pgm"
            assert (tmp_path / "re.pgm").read_bytes() == stored.read_bytes()


def test_hidden_factor_changes_images_locally():
    spec = sd.SceneSpec()
    theta, face, _ = sd.sample_frame(spec, "000000", 0)
    _, p0 = sd.frame_mesh(spec, theta, 0.0)
    _, p1 = sd.frame_mesh(spec, theta, 1.0)
    i0, m0 = sd.render_views(spec, p0, sd.frame_texture(spec, 0.0, face))
    i1, m1 = sd.render_views(spec, p1, sd.frame_texture(spec, 1.0, face))
    for a, b, ma, mb in zip(i0, i1, m0, m1):
        assert np.abs(a - b).mean() > 0.01
        # away from both silhouettes the stored-precision images agree
        off = (ma == 0.0) & (mb == 0.0)
        qa = np.round(np.clip(a, 0.0, 1.0) * 255.0)
        qb = np.round(np.clip(b, 0.0, 1.0) * 255.0)
        np.testing.assert_array_equal(qa[:, off], qb[:, off])


def test_split_dataset(small_spec, tmp_path):
    manifest = sd.generate_dataset(dataclasses.replace(small_spec, seed=1),
                                   tmp_path / "set", 20)
    split = sd.split_dataset(manifest, 0.2, seed=9)
    train = split.ids(split="train")
    test_std = split.ids(group="standard", split="test")
    novel = split.ids(group="novel")
    assert len(test_std) == 4 and len(train) == 16 and len(novel) == 4
    assert not set(train) & set(test_std)
    limit = np.repeat(np.asarray(small_spec.pose_range), 3)
    seen_beyond = False
    for fid in novel:
        rec = sd.load_frame(split, fid)
        assert np.all(np.abs(rec.theta) <= limit * small_spec.novel_margin)
        seen_beyond |= bool(np.any(np.abs(rec.theta) > limit))
        assert (Path(split.root) / "frames" / fid / "cam0.ppm").exists()
    assert seen_beyond
    # the rewritten manifest reloads to the same split
    reloaded = sd.load_manifest(split.root)
    assert reloaded.test_fraction == 0.2 and reloaded.split_seed == 9
    assert reloaded.ids(split="train") == train
    assert reloaded.ids(group="novel") == novel
    # splitting again with the same seed reproduces the manifest bytes
    text = (Path(split.root) / "manifest.txt").read_bytes()
    sd.split_dataset(manifest, 0.2, seed=9)
    assert (Path(split.root) / "manifest.txt").read_bytes() == text


def test_frames_load_the_factors_their_manifest_entry_draws(small_spec,
                                                            tmp_path):
    # novel frames are drawn under the split seed, standard ones under the
    # scene seed, however the two differ
    manifest = sd.generate_dataset(dataclasses.replace(small_spec, seed=2),
                                   tmp_path / "set", 4)
    split = sd.split_dataset(manifest, 0.5, seed=7)
    reloaded = sd.load_manifest(split.root)
    spec = reloaded.spec
    for fid in reloaded.ids():
        if fid.startswith("novel"):
            want = sd.sample_frame(spec, fid, 7, extend=spec.novel_margin)
        else:
            want = sd.sample_frame(spec, fid, 2)
        rec = sd.load_frame(reloaded, fid)
        assert rec.theta.dtype == want[0].dtype == np.float64
        assert rec.theta.tobytes() == want[0].tobytes(), fid
        assert rec.face.tobytes() == want[1].tobytes(), fid
        assert rec.u == want[2], fid
    assert len(reloaded.ids(group="novel")) == 2


def test_manifest_with_novel_frames_needs_a_split_seed(small_spec, tmp_path):
    manifest = sd.generate_dataset(small_spec, tmp_path / "set", 2)
    sd.split_dataset(manifest, 0.5, seed=3)
    path = tmp_path / "set" / "manifest.txt"
    lines = path.read_text().splitlines(keepends=True)
    assert "split.seed = 3\n" in lines
    path.write_text("".join(ln for ln in lines if ln != "split.seed = 3\n"))
    with pytest.raises(ValueError, match="no split.seed"):
        sd.load_manifest(tmp_path / "set")


def test_load_frame_refuses_an_unknown_id(small_dataset):
    # frames/ may hold a directory the manifest no longer lists
    assert (Path(small_dataset.root) / "frames" / "000005").is_dir()
    manifest = dataclasses.replace(small_dataset,
                                   frames=small_dataset.frames[:5])
    with pytest.raises(ValueError, match="'000005' is not in the dataset "
                                         "manifest"):
        sd.load_frame(manifest, "000005")
    with pytest.raises(ValueError, match="is not in the dataset manifest"):
        sd.load_frame(small_dataset, "novel0000")


class _Stop(Exception):
    pass


@pytest.mark.parametrize("step", ["generate", "split"])
def test_interrupted_rewrite_leaves_no_manifest(small_spec, tmp_path,
                                                monkeypatch, step):
    # the manifest implies every frame's factors, so one left behind by a
    # rewrite under another seed would disagree with the images on disk
    manifest = sd.generate_dataset(small_spec, tmp_path / "set", 4)
    manifest = sd.split_dataset(manifest, 0.5, seed=1)
    real, calls = sd.dataset._write_frame, []

    def write_frame(*args, **kwargs):
        if calls:
            raise _Stop
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(sd.dataset, "_write_frame", write_frame)
    with pytest.raises(_Stop):
        if step == "generate":
            sd.generate_dataset(dataclasses.replace(small_spec, seed=2),
                                tmp_path / "set", 4)
        else:
            sd.split_dataset(manifest, 0.5, seed=2)
    assert len(calls) == 1
    assert not (tmp_path / "set" / "manifest.txt").exists()


def test_split_dataset_degenerate(small_dataset):
    with pytest.raises(ValueError):
        sd.split_dataset(small_dataset, 0.01, seed=0)  # rounds to zero frames
    with pytest.raises(ValueError):
        sd.split_dataset(small_dataset, 1.0, seed=0)
    with pytest.raises(ValueError):
        sd.split_dataset(small_dataset, 0.0, seed=0)


def test_hidden_factor_recoverable(small_spec):
    # linear probe from raw pixels to u; u must be present in the images
    n, n_train = 160, 128
    dim = small_spec.n_cameras * 3 * small_spec.image_size ** 2
    X = np.empty((n, dim))
    y = np.empty(n)
    for i in range(n):
        theta, face, u = sd.sample_frame(small_spec, f"{i:06d}", 11)
        _, posed = sd.frame_mesh(small_spec, theta, u)
        images, _ = sd.render_views(small_spec, posed,
                                    sd.frame_texture(small_spec, u, face))
        X[i] = np.concatenate([im.ravel() for im in images])
        y[i] = u
    Xtr, Xte, ytr, yte = X[:n_train], X[n_train:], y[:n_train], y[n_train:]
    gram = Xtr @ Xtr.T
    lam = 1e-4 * np.trace(gram) / n_train
    alpha = np.linalg.solve(gram + lam * np.eye(n_train), ytr - ytr.mean())
    pred = (Xte @ Xtr.T) @ alpha + ytr.mean()
    r2 = 1.0 - np.sum((pred - yte) ** 2) / np.sum((yte - yte.mean()) ** 2)
    assert r2 > 0.9
