"""The array-built UV atlas against the per-face loop it replaced
(``tests/atlas_oracle.py``): byte-equal tables on the default template
and on seeded UV soups, the lowest-face tie rule, and the same first
overlap error."""

import numpy as np
import pytest

from dsaa import body
from dsaa.synthdata import build_figure

from atlas_oracle import atlas_oracle


def assert_same_atlas(uvs, faces, height, width):
    got = body.build_atlas(uvs, faces, height, width)
    want = atlas_oracle(uvs, faces, height, width)
    assert got.face_idx.dtype == want.face_idx.dtype
    assert got.face_idx.tobytes() == want.face_idx.tobytes()
    assert got.bary.dtype == want.bary.dtype
    assert got.bary.tobytes() == want.bary.tobytes()
    assert (got.height, got.width) == (height, width)
    return got


@pytest.fixture(scope="module")
def template():
    return build_figure().template


@pytest.mark.parametrize("res", [(8, 8), (16, 16), (32, 32), (64, 64),
                                 (128, 128), (24, 40)])
def test_template_atlas_matches_loop(template, res):
    atlas = assert_same_atlas(template.uvs, template.faces, *res)
    assert atlas.valid.mean() > 0.5


def cell_soup(rng, n, lo, hi):
    """One random triangle inside each cell of an n x n grid over
    [lo, hi]^2, three vertices of its own each: disjoint in UV."""
    step = (hi - lo) / n
    corner = lo + step * np.stack(np.meshgrid(np.arange(n), np.arange(n)),
                                  axis=-1).reshape(-1, 1, 2)
    uvs = (corner + step * rng.uniform(0.02, 0.98, size=(n * n, 3, 2))).reshape(-1, 2)
    return uvs, np.arange(3 * n * n).reshape(-1, 3)


@pytest.mark.parametrize("seed", range(4))
def test_clipped_bboxes_match_loop(seed):
    # cells reach past the canvas on every side, so bboxes clip at 0 and
    # at W-1/H-1 and some faces lie wholly outside
    rng = np.random.default_rng(seed)
    uvs, faces = cell_soup(rng, 7, -0.3, 1.3)
    assert uvs.min() < -0.05 and uvs.max() > 1.05
    for res in ((8, 8), (16, 24), (37, 29)):
        assert_same_atlas(uvs, faces, *res)


@pytest.mark.parametrize("seed", range(4))
def test_uv_degenerate_faces_cover_nothing(seed):
    rng = np.random.default_rng(100 + seed)
    uvs, faces = cell_soup(rng, 5, 0.0, 1.0)
    V = len(uvs)
    # collinear corners, a repeated index and a sliver below the
    # determinant cutoff whose long edge runs through a row of texel
    # centers, spliced in between the good faces
    p, q = rng.uniform(0.1, 0.9, size=(2, 2))
    row = (rng.integers(4, 28) + 0.5) / 32
    extra = np.array([p, q, 0.5 * (p + q), [0.1, row], [0.9, row], [0.5, row + 4e-16]])
    uvs = np.concatenate([uvs, extra])
    bad = np.array([[V, V + 1, V + 2], [V, V, V + 1], [V + 3, V + 4, V + 5]])
    at = np.sort(rng.choice(len(faces) + 1, size=3))
    faces = np.insert(faces, at, bad, axis=0)
    atlas = assert_same_atlas(uvs, faces, 32, 32)
    degenerate = at + np.arange(3)
    assert not np.isin(atlas.face_idx, degenerate).any()


def fan(rng, H, W, n_spokes):
    """Triangle fan around a point between texel centers. Each spoke runs
    through a texel center on its way to the rim, so that center lies on
    the edge the two faces beside the spoke share; faces in a random
    order. Coordinates are in texels (centers on the integers)."""
    c = np.array([rng.integers(W // 3, 2 * W // 3) + 0.5,
                  rng.integers(H // 3, 2 * H // 3) + 0.3])
    lattice = np.floor(c) + np.stack(np.meshgrid(np.arange(-3, 4), np.arange(-3, 4)),
                                     axis=-1).reshape(-1, 2)
    ang = np.arctan2(*(lattice - c).T[::-1])
    _, distinct = np.unique(np.round(ang, 9), return_index=True)
    while True:                        # angular gaps < pi: no overlaps
        pick = rng.choice(distinct, size=n_spokes, replace=False)
        pick = pick[np.argsort(ang[pick])]
        gaps = np.diff(np.append(ang[pick], ang[pick[0]] + 2 * np.pi))
        if gaps.max() < 0.9 * np.pi:
            break
    rim = c + rng.uniform(1.2, 2.0, size=(n_spokes, 1)) * (lattice[pick] - c)
    uvs = (np.concatenate([[c], rim]) + 0.5) / (W, H)
    k = np.arange(n_spokes)
    faces = np.stack([np.zeros(n_spokes, int), 1 + k, 1 + (k + 1) % n_spokes], axis=1)
    return uvs, faces[rng.permutation(n_spokes)]


@pytest.mark.parametrize("seed", range(6))
def test_shared_edge_fan_lowest_face_wins(seed):
    rng = np.random.default_rng(200 + seed)
    H = W = 32
    uvs, faces = fan(rng, H, W, n_spokes=int(rng.integers(5, 9)))
    atlas = assert_same_atlas(uvs, faces, H, W)
    # every face's coverage on its own; a texel goes to its lowest claimant
    claims = np.stack([body.build_atlas(uvs, faces[[f]], H, W).valid
                       for f in range(len(faces))])
    assert (claims.sum(axis=0) > 1).any()      # ties happened
    lowest = np.where(claims.any(axis=0), claims.argmax(axis=0), -1)
    np.testing.assert_array_equal(atlas.face_idx, lowest)
    tied = claims.sum(axis=0) > 1
    assert np.all(atlas.bary[tied].min(axis=1) >= -1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_overlap_error_names_the_loops_first_offence(seed):
    # a shared-edge fan first (ties are allowed), then free triangles
    # that overlap it and each other; several offending pairs exist
    rng = np.random.default_rng(300 + seed)
    uvs, faces = fan(rng, 24, 24, n_spokes=6)
    free = rng.uniform(0.1, 0.9, size=(5, 3, 2)).reshape(-1, 2)
    faces = np.concatenate([faces, len(uvs) + np.arange(15).reshape(-1, 3)])
    uvs = np.concatenate([uvs, free])
    faces = faces[rng.permutation(len(faces))]
    with pytest.raises(ValueError, match="injective") as want:
        atlas_oracle(uvs, faces, 24, 24)
    with pytest.raises(ValueError, match="injective") as got:
        body.build_atlas(uvs, faces, 24, 24)
    assert str(got.value) == str(want.value)


def test_overlap_with_vertex_shared_only_is_refused():
    # two triangles meeting at one vertex and overlapping: one shared
    # vertex is not an edge, so the shared texels are an error
    uvs = np.array([[0.5, 0.5], [0.95, 0.3], [0.95, 0.7], [0.9, 0.1], [0.9, 0.9]])
    faces = np.array([[0, 1, 2], [0, 3, 4]])
    with pytest.raises(ValueError) as want:
        atlas_oracle(uvs, faces, 16, 16)
    with pytest.raises(ValueError) as got:
        body.build_atlas(uvs, faces, 16, 16)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("overlapping UV triangles 0 and 1 at texel (")


def test_no_face_covers_a_texel_center():
    uvs = np.array([[0.01, 0.01], [0.05, 0.01], [0.01, 0.05]])
    atlas = assert_same_atlas(uvs, np.array([[0, 1, 2]]), 8, 8)
    assert not atlas.valid.any()
    empty = assert_same_atlas(uvs, np.zeros((0, 3), dtype=np.intp), 8, 8)
    assert not empty.valid.any()
