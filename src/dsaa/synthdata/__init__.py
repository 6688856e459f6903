"""Procedural multi-view dataset generator for the articulated figure.

Produces pose/face/hidden-factor samples, wrinkled and textured meshes,
ground-truth renders from a camera ring, and an on-disk dataset with a
verifiable manifest, train/test splitting, and a novel-pose test group.
"""

from .dataset import (DatasetManifest, FrameEntry, FrameRecord,
                      generate_dataset, load_frame, load_manifest,
                      split_dataset, split_test_count)
from .figure import Figure, build_figure, figure_bytes
from .generate import frame_mesh, frame_texture, render_views, wrinkle_displacement
from .scene import (SceneSpec, default_scene, raster_config, sample_frame,
                    scene_cameras)

__all__ = [
    "Figure", "build_figure", "figure_bytes",
    "SceneSpec", "default_scene", "raster_config", "sample_frame",
    "scene_cameras",
    "wrinkle_displacement", "frame_mesh", "frame_texture", "render_views",
    "DatasetManifest", "FrameEntry", "FrameRecord", "load_frame",
    "generate_dataset", "split_dataset", "split_test_count", "load_manifest",
]
