"""Training-side dataset access.

Wraps a generated dataset directory with everything the trainer and the
evaluators need per frame: ground-truth images/masks/mesh, the ground-truth
mesh Laplacian that the Laplacian term compares against (computed once
per frame and dtype, and kept in RAM), the unposed position map that
feeds the geometry encoder, and a cached ambient-occlusion map. AO is
computed from the skinned template at the frame's pose (no corrective
displacement), so it is a function of the driving signal alone and is
equally available for novel frames at animation time. The per-frame maps
are cached on disk next to the dataset (one container per resolution)
because they are pure functions of the manifest.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import diffcore as dc
from ..avatar import AvatarConfig
from ..body import (TemplateMesh, build_atlas, forward_kinematics,
                    lbs_apply, mesh_laplacian, render_position_map)
from ..conditioning import DrivingSignal
from ..occlusion import AOSamplerConfig, TexelRays, compute_ao, texel_rays
from ..renderer import Camera
from ..synthdata import FrameRecord, load_frame, load_manifest, scene_cameras

__all__ = ["TrainData"]


class TrainData:
    """Manifest-backed frame source with RAM caches for derived inputs.

    The template and skeleton are `SceneSpec.figure`, which the stored
    spec hash covers.

    geo_res fixes the encoder position-map grid, ao_res the shadow input
    grid; both default to those of `AvatarConfig()`.
    """

    def __init__(self, dataset_root, geo_res: int = AvatarConfig.geo_res,
                 ao_res: int = AvatarConfig().shadow_res):
        self.root = Path(dataset_root)
        self.manifest = load_manifest(self.root)
        self.spec = self.manifest.spec
        self.template = self.spec.figure.template
        self.skeleton = self.spec.figure.skeleton
        self.cameras: list[Camera] = scene_cameras(self.spec)
        self.geo_res = int(geo_res)
        self.ao_res = int(ao_res)
        self._atlas = build_atlas(self.template.uvs, self.template.faces,
                                  self.geo_res, self.geo_res)
        self._frames: dict[str, FrameRecord] = {}
        self._pos_maps: dict[str, np.ndarray] = {}
        self._laplacians: dict[tuple, np.ndarray] = {}
        self._ao: dict[str, np.ndarray] = {}
        self._ao_rays: TexelRays | None = None     # built by the first bake
        self._ao_dirty = False

    # ------------------------------------------------------------- frames

    def ids(self, group=None, split=None) -> list[str]:
        return self.manifest.ids(group=group, split=split)

    def train_ids(self) -> list[str]:
        """Frames used for fitting: the train split, or every standard
        frame when the dataset was never split."""
        ids = self.manifest.ids(group="standard", split="train")
        return ids if ids else self.manifest.ids(group="standard")

    def frame(self, frame_id: str) -> FrameRecord:
        if frame_id not in self._frames:
            self._frames[frame_id] = load_frame(self.manifest, frame_id)
        return self._frames[frame_id]

    def signal(self, frame_id: str, cam: int) -> DrivingSignal:
        fr = self.frame(frame_id)
        # camera forward axis (world->cam rotation row 2) as the view code
        return DrivingSignal(theta=fr.theta, face=fr.face,
                             view=self.cameras[cam].rot[2])

    def check_model(self, config) -> None:
        """Refuse a model config that reads another face-scalar count."""
        if config.n_face != self.spec.n_face:
            raise ValueError(f"model reads {config.n_face} face scalars; the "
                             f"dataset supplies {self.spec.n_face}")

    def scalars(self, frame_id: str) -> np.ndarray:
        fr = self.frame(frame_id)
        return np.concatenate([fr.theta, fr.face])

    def laplacian(self, frame_id: str, dtype) -> np.ndarray:
        """Ground-truth Laplacian [V,3] of the frame's registered mesh in
        `dtype`: `mesh_laplacian` of its vertices cast to dtype, computed
        on first use and kept (read-only) for every later step."""
        key = (frame_id, np.dtype(dtype).str)
        if key not in self._laplacians:
            lap = mesh_laplacian(self.template,
                                 self.frame(frame_id).verts.astype(dtype))
            lap.setflags(write=False)
            self._laplacians[key] = lap
        return self._laplacians[key]

    # --------------------------------------------------- derived model inputs

    def pos_map(self, frame_id: str) -> np.ndarray:
        """Unposed ground-truth geometry resampled on the atlas, [3,g,g]."""
        if frame_id not in self._pos_maps:
            self._pos_maps[frame_id] = render_position_map(
                self.frame(frame_id).canonical, self.template.faces,
                self._atlas)
        return self._pos_maps[frame_id]

    def ao(self, frame_id: str) -> np.ndarray:
        """Shadow-branch input [1,R,R]: template-at-pose visibility, with
        texels outside the atlas treated as unoccluded."""
        if not self._ao and self._ao_path().exists():
            self._ao.update(dc.load_arrays(self._ao_path()))
        if frame_id not in self._ao:
            fr = self.frame(frame_id)
            tf = forward_kinematics(self.skeleton, fr.theta)
            posed = lbs_apply(self.template.verts, tf, self.template.weights)
            mesh = TemplateMesh(posed, self.template.faces, self.template.uvs,
                                self.template.weights)
            if self._ao_rays is None:
                # default sampler only: the disk cache is keyed by resolution
                atlas = build_atlas(self.template.uvs, self.template.faces,
                                    self.ao_res, self.ao_res)
                self._ao_rays = texel_rays(AOSamplerConfig(), atlas)
            amap = compute_ao(mesh, self._ao_rays)
            self._ao[frame_id] = np.where(amap.valid, amap.values,
                                          1.0).astype(np.float32)
            self._ao_dirty = True
        return self._ao[frame_id][None]

    def _ao_path(self) -> Path:
        return self.root / f"ao{self.ao_res}.dsaa1"

    def flush_ao(self) -> None:
        """Persist newly computed AO maps (sorted keys) through
        `dc.save_arrays`, which replaces the cache whole.

        Each flush renames a temp file of its own over the cache, so
        processes sharing a dataset never write into one file. When they
        flush concurrently, the last writer's maps win; a map missing
        from the disk cache is recomputed bit-identically on demand.
        """
        if not self._ao_dirty:
            return
        dc.save_arrays(self._ao_path(),
                       {k: self._ao[k] for k in sorted(self._ao)})
        self._ao_dirty = False

    def ensure_ao(self, frame_ids) -> None:
        """Compute-and-persist AO for `frame_ids` ahead of the loop."""
        for fid in frame_ids:
            self.ao(fid)
        self.flush_ao()
