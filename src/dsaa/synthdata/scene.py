"""Scene description and per-frame factor samplers.

A SceneSpec field is what a dataset varies, by the rule of
dsaa.harness.config; the figure, ranges, amplitudes, camera ring and
render settings are its class constants. Frames are sampled through
named per-frame substreams, so generation order never matters and the
hidden appearance factor u is independent of the pose draw unless a
spurious correlation is injected explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..renderer import Camera, RasterConfig, look_at
from ..rng import stream
from .figure import Figure, build_figure

__all__ = ["SceneSpec", "default_scene", "scene_cameras", "raster_config",
           "sample_frame"]


@dataclass(frozen=True)
class SceneSpec:
    """The fields are what a dataset varies: code outside the tests sets
    image_size, n_cameras and seed, n_face must match the model's and
    tests use rho_spurious's second value. The class constants are the
    rest: the figure (built once per process, arrays read-only),
    pose_range, novel_margin, face_range, wrinkle_*, phase_span, stripe_*,
    face_amp, base_albedo, cam_radius, cam_height, focal, tex_size,
    sigma_r, gamma_r and corr_scalar. They read as `spec.x`, and every
    dataset's hash covers them by name and repr."""

    figure: ClassVar[Figure] = build_figure()
    # per joint, rad, all 3 angles; times novel_margin within 1.2 rad,
    # which keeps blended skinning transforms well conditioned
    pose_range: ClassVar[tuple] = (0.3, 0.4, 0.5, 1.0, 1.0, 1.0, 1.0, 0.8,
                                   1.0, 0.8, 1.0)
    novel_margin: ClassVar[float] = 1.2
    face_range: ClassVar[float] = 1.0
    # low spatial frequencies keep the u-phase readable under pose jitter
    wrinkle_amp: ClassVar[float] = 0.035
    wrinkle_freq: ClassVar[float] = 2.0
    phase_span: ClassVar[float] = math.pi / 2.0  # u in [0,1]: a quarter cycle
    stripe_freq: ClassVar[float] = 1.0
    stripe_amp: ClassVar[float] = 0.35
    face_amp: ClassVar[float] = 0.35
    base_albedo: ClassVar[tuple] = (0.62, 0.50, 0.42)
    cam_radius: ClassVar[float] = 2.4
    cam_height: ClassVar[float] = 0.3
    focal: ClassVar[float] = 62.0
    tex_size: ClassVar[int] = 64
    # small sigma_r hardens edges, so low-coverage depth weights at
    # gamma_r die out inside the soft-mask falloff
    sigma_r: ClassVar[float] = 0.08
    gamma_r: ClassVar[float] = 0.05
    corr_scalar: ClassVar[int] = 9  # flat pose-vector index tied to u

    n_face: int = 4
    n_cameras: int = 4
    image_size: int = 64
    rho_spurious: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rho_spurious <= 1.0:
            raise ValueError("rho_spurious must lie in [0, 1]")
        for field, lo in (("n_face", 1), ("n_cameras", 1), ("image_size", 8)):
            if getattr(self, field) < lo:
                raise ValueError(f"{field} must be at least {lo}")


def default_scene(**overrides) -> SceneSpec:
    """`SceneSpec(**overrides)` under a second name. Its last callers are
    `perfbench/workloads.py` and `tests/test_allocator.py` (which reads
    the glibc heap layout), with `tests/test_golden_paths.py` and
    `tests/test_perfbench_hooks.py`; new code calls `SceneSpec`."""
    return SceneSpec(**overrides)


def scene_cameras(spec: SceneSpec):
    """Evenly spaced ring of inward-looking cameras around the figure."""
    cams = []
    half = spec.image_size / 2.0
    for k in range(spec.n_cameras):
        # 0.4 rad offset keeps every view away from the coordinate planes
        a = 2.0 * math.pi * k / spec.n_cameras + 0.4
        eye = np.array([spec.cam_radius * math.cos(a), spec.cam_height,
                        spec.cam_radius * math.sin(a)])
        rot, t = look_at(eye, np.zeros(3))
        cams.append(Camera(fx=spec.focal, fy=spec.focal, cx=half, cy=half,
                           rot=rot, t=t,
                           height=spec.image_size, width=spec.image_size))
    return cams


def raster_config(spec: SceneSpec) -> RasterConfig:
    """The rasterizer settings of the scene's renders; the model renders
    a dataset's frames with the same ones."""
    return RasterConfig(sigma_r=spec.sigma_r, gamma=spec.gamma_r)


def sample_frame(spec: SceneSpec, frame_id: str, seed: int, *,
                 extend: float = 1.0):
    """Draw (theta, face, u) for one frame from independent substreams.

    extend scales the pose ranges (novel-pose frames pass the spec's
    novel_margin).  The hidden factor mixes an independent uniform draw n
    with the normalized coupled pose scalar t as
    (rho*t + s*n) / (rho + s), s = sqrt(1 - rho^2), so rho = 0 returns n
    bitwise and rho = 1 is a deterministic function of the pose.
    """
    r = np.repeat(np.asarray(spec.pose_range, dtype=np.float64), 3) * extend
    theta = stream(seed, "frame", frame_id, "theta").uniform(-r, r)
    face = stream(seed, "frame", frame_id, "face").uniform(
        -spec.face_range, spec.face_range, spec.n_face)
    n = float(stream(seed, "frame", frame_id, "hidden").uniform(0.0, 1.0))
    rho = spec.rho_spurious
    s = math.sqrt(1.0 - rho * rho)
    t = theta[spec.corr_scalar] / (2.0 * r[spec.corr_scalar]) + 0.5 if rho > 0.0 else 0.0
    u = (rho * t + s * n) / (rho + s)
    return theta, face, float(u)
