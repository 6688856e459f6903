"""Dataset directory layout, manifest, splitting, and frame loading.

Layout under a dataset root:

    manifest.txt
    frames/<id>/cam<k>.ppm  cam<k>_mask.pgm

A frame stores only its captures; its manifest entry implies the rest.
sample_frame draws a standard frame's (theta, face, u) under the scene
seed and a novel frame's under the split seed and the spec's
novel_margin, frame_mesh rebuilds its canonical and posed meshes, and
SceneSpec.figure is the template and skeleton.

The manifest carries the SceneSpec fields plus a hash over them, over
the name and repr of every SceneSpec class constant and over the figure
geometry, so a loaded manifest can prove it still matches the code that
would regenerate it; generate_dataset and split_dataset delete it before
writing any frame and write it last. A change to the arithmetic of
sample_frame or the rng.stream it draws from, of frame_mesh, or of the
body.lbs_apply that poses its mesh changes every dataset's ground truth
and the geometry encoder's input: it must change _FORMAT, and
load_manifest then refuses old datasets.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import keyvalue
from ..imgio import read_pgm, read_ppm, write_pgm, write_ppm
from ..rng import stream
from .figure import figure_bytes
from .generate import frame_mesh, frame_texture, render_views
from .scene import SceneSpec, sample_frame

__all__ = ["FrameEntry", "FrameRecord", "DatasetManifest",
           "generate_dataset", "split_dataset", "load_manifest",
           "load_frame"]

_FORMAT = "dsaa-dataset-2"


@dataclass(frozen=True)
class FrameEntry:
    id: str
    group: str  # standard | novel
    split: str  # unsplit | train | test


@dataclass(frozen=True)
class FrameRecord:
    id: str
    theta: np.ndarray       # theta, face and u drawn again from the
    face: np.ndarray        # frame's manifest entry
    u: float
    canonical: np.ndarray   # unposed, wrinkled: the encoder's geometry
    verts: np.ndarray       # posed: the exact geometry behind the gt;
                            # both rebuilt from theta and u
    images: np.ndarray  # [n_cam,3,H,W] float32
    masks: np.ndarray   # [n_cam,H,W] float32


@dataclass
class DatasetManifest:
    root: Path
    spec: SceneSpec
    spec_hash: str
    frames: list
    test_fraction: float = None
    split_seed: int = None

    def ids(self, *, group=None, split=None):
        return [e.id for e in self.frames
                if (group is None or e.group == group)
                and (split is None or e.split == split)]

    @functools.cached_property
    def _entries(self) -> dict:
        return {e.id: e for e in self.frames}


def _spec_hash(spec: SceneSpec) -> str:
    """Hash of the format, the spec lines, every class constant but the
    figure by name and repr in declaration order, and the figure."""
    skip = {f.name for f in dataclasses.fields(SceneSpec)} | {"figure"}
    constants = [(name, repr(getattr(SceneSpec, name)))
                 for name in SceneSpec.__annotations__ if name not in skip]
    h = hashlib.sha256()
    h.update(_FORMAT.encode())
    h.update(keyvalue.dump(keyvalue.field_items(spec, "spec.")
                           + constants).encode())
    h.update(figure_bytes(spec.figure))
    return h.hexdigest()


def _write_manifest(m: DatasetManifest) -> None:
    items = [("format", _FORMAT), ("spec_hash", m.spec_hash)]
    items += keyvalue.field_items(m.spec, "spec.")
    if m.test_fraction is not None:
        items += [("split.test_fraction", repr(float(m.test_fraction))),
                  ("split.seed", str(int(m.split_seed)))]
    items += [(f"frame.{e.id}", f"{e.group} {e.split}") for e in m.frames]
    keyvalue.write_atomic(m.root / "manifest.txt", keyvalue.dump(items))


def load_manifest(root) -> DatasetManifest:
    root = Path(root)
    kv = keyvalue.read((root / "manifest.txt").read_text())
    if kv.pop("format", None) != _FORMAT:
        raise ValueError(f"dataset manifest must declare 'format = {_FORMAT}'")
    spec = SceneSpec(**keyvalue.take_fields(SceneSpec, kv, "spec."))
    stored = kv.pop("spec_hash", "")
    fraction = kv.pop("split.test_fraction", None)
    seed = kv.pop("split.seed", None)
    frames = []
    for key in [k for k in kv if k.startswith("frame.")]:
        group, _, split = kv.pop(key).partition(" ")
        if group not in ("standard", "novel") or split not in ("unsplit", "train", "test"):
            raise ValueError(f"{key}: unknown group or split {group!r} {split!r}")
        frames.append(FrameEntry(key[len("frame."):], group, split))
    keyvalue.reject_unknown(kv, "manifest")
    if seed is None and any(e.group == "novel" for e in frames):
        raise ValueError("manifest lists novel frames but no split.seed")
    if stored != _spec_hash(spec):
        raise ValueError("manifest hash does not match the regenerated scene")
    return DatasetManifest(root=root, spec=spec, spec_hash=stored,
                           frames=frames,
                           test_fraction=None if fraction is None else float(fraction),
                           split_seed=None if seed is None else int(seed))


def _factors(m: DatasetManifest, entry: FrameEntry):
    """(theta, face, u) of a frame, drawn from its manifest entry."""
    if entry.group == "novel":
        return sample_frame(m.spec, entry.id, m.split_seed,
                            extend=m.spec.novel_margin)
    return sample_frame(m.spec, entry.id, m.spec.seed)


def _write_frame(m: DatasetManifest, entry: FrameEntry):
    theta, face, u = _factors(m, entry)
    _, posed = frame_mesh(m.spec, theta, u)
    images, masks = render_views(m.spec, posed, frame_texture(m.spec, u, face))
    d = m.root / "frames" / entry.id
    d.mkdir(parents=True, exist_ok=True)
    for k, (img, msk) in enumerate(zip(images, masks)):
        write_ppm(d / f"cam{k}.ppm", img)
        write_pgm(d / f"cam{k}_mask.pgm", msk)
    return theta, u


def _drop_derived(root: Path) -> None:
    """Delete what rewritten frames make stale: the manifest and AO maps."""
    (root / "manifest.txt").unlink(missing_ok=True)
    for path in root.glob("ao*.dsaa1"):
        path.unlink()


def generate_dataset(spec: SceneSpec, out_dir,
                     n_frames: int) -> DatasetManifest:
    """Render n_frames frames sampled under spec.seed into out_dir and
    write the manifest."""
    if n_frames < 2:
        raise ValueError("n_frames must be at least 2")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    _drop_derived(root)
    m = DatasetManifest(root=root, spec=spec, spec_hash=_spec_hash(spec),
                        frames=[FrameEntry(f"{i:06d}", "standard", "unsplit")
                                for i in range(n_frames)])
    thetas, us = zip(*(_write_frame(m, e) for e in m.frames))
    if spec.rho_spurious == 0.0 and n_frames >= 500:
        # independence tripwire: honest seeds sit near 3/sqrt(n) at worst,
        # a shared-stream bug produces correlations near 1
        corr = np.corrcoef(np.asarray(thetas).T, np.asarray(us))[-1, :-1]
        if np.abs(corr).max() > 4.5 / np.sqrt(n_frames):
            raise RuntimeError(
                f"hidden factor correlates with pose ({np.abs(corr).max():.3f})")
    _write_manifest(m)
    return m


def split_test_count(n_frames: int, test_fraction: float) -> int:
    """round(n_frames * test_fraction), the test frames a split holds out;
    refuses a fraction outside (0, 1) or a split with an empty side."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = int(round(n_frames * test_fraction))
    if not 0 < n_test < n_frames:
        raise ValueError(f"degenerate split: {n_test} test frames of {n_frames}")
    return n_test


def split_dataset(manifest: DatasetManifest, test_fraction: float,
                  seed: int) -> DatasetManifest:
    """Tag a uniform train/test split and add a novel-pose test group.

    Novel frames (as many as the held-out test frames) are drawn with the
    spec's novel_margin applied to every pose range, rendered, and tagged
    test; their ranges strictly exceed the training ranges by construction.
    """
    standard = [e for e in manifest.frames if e.group == "standard"]
    n_test = split_test_count(len(standard), test_fraction)
    hold = set(np.asarray(
        stream(seed, "split").permutation(len(standard))[:n_test]))
    frames = [dataclasses.replace(e, split="test" if i in hold else "train")
              for i, e in enumerate(standard)]
    novel = [FrameEntry(f"novel{i:04d}", "novel", "test")
             for i in range(n_test)]
    out = DatasetManifest(root=manifest.root, spec=manifest.spec,
                          spec_hash=manifest.spec_hash, frames=frames + novel,
                          test_fraction=float(test_fraction),
                          split_seed=int(seed))
    _drop_derived(out.root)
    for e in novel:
        _write_frame(out, e)
    _write_manifest(out)
    return out


def load_frame(manifest: DatasetManifest, frame_id: str) -> FrameRecord:
    # frames/ may hold frames an earlier generation or split listed
    entry = manifest._entries.get(frame_id)
    if entry is None:
        raise ValueError(f"frame {frame_id!r} is not in the dataset manifest")
    theta, face, u = _factors(manifest, entry)
    d = Path(manifest.root) / "frames" / frame_id
    cams = range(manifest.spec.n_cameras)
    images = np.stack([read_ppm(d / f"cam{k}.ppm") for k in cams])
    masks = np.stack([read_pgm(d / f"cam{k}_mask.pgm") for k in cams])
    canonical, posed = frame_mesh(manifest.spec, theta, u)
    return FrameRecord(id=frame_id, theta=theta, face=face, u=u,
                       canonical=canonical, verts=posed,
                       images=images.astype(np.float32),
                       masks=masks.astype(np.float32))
