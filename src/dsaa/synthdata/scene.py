"""Scene description and per-frame factor samplers.

A SceneSpec pins every degree of freedom of the generator: the figure,
pose and appearance ranges, camera ring, render settings, and the seed.
Frames are sampled through named per-frame substreams, so generation
order never matters and the hidden appearance factor u is independent
of the pose draw unless a spurious correlation is injected explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..renderer import Camera, RasterConfig, look_at
from ..rng import stream
from .figure import Figure, build_figure

__all__ = ["SceneSpec", "default_scene", "scene_cameras", "raster_config",
           "sample_frame"]

_MAX_ANGLE = 1.2  # rad; keeps blended skinning transforms well conditioned

_DEFAULT_POSE_RANGE = (0.3, 0.4, 0.5, 1.0, 1.0, 1.0, 1.0, 0.8, 1.0, 0.8, 1.0)


@dataclass(frozen=True, eq=False)
class SceneSpec:
    figure: Figure
    pose_range: tuple = _DEFAULT_POSE_RANGE  # per joint, rad, all 3 angles
    novel_margin: float = 1.2
    n_face: int = 4
    face_range: float = 1.0
    # low spatial frequencies keep the u-phase readable under pose jitter
    wrinkle_amp: float = 0.035
    wrinkle_freq: float = 2.0
    phase_span: float = math.pi / 2.0  # u in [0,1] sweeps a quarter cycle
    stripe_freq: float = 1.0
    stripe_amp: float = 0.35
    face_amp: float = 0.35
    base_albedo: tuple = (0.62, 0.50, 0.42)
    n_cameras: int = 4
    cam_radius: float = 2.4
    cam_height: float = 0.3
    focal: float = 62.0
    image_size: int = 64
    tex_size: int = 64
    # small sigma_r hardens edges; gamma_r stays at the renderer default
    # so low-coverage depth weights die out inside the soft-mask falloff
    sigma_r: float = 0.08
    gamma_r: float = 0.05
    rho_spurious: float = 0.0
    corr_scalar: int = 9  # flat pose-vector index tied to u when rho > 0
    seed: int = 0

    def __post_init__(self):
        pr = np.asarray(self.pose_range, dtype=np.float64)
        if pr.shape != (len(self.figure.skeleton.names),):
            raise ValueError("pose_range must list one range per joint")
        if np.any(pr < 0.0):
            raise ValueError("pose ranges must be nonnegative")
        if self.novel_margin <= 1.0:
            raise ValueError("novel_margin must exceed 1")
        if np.any(pr * self.novel_margin > _MAX_ANGLE + 1e-12):
            raise ValueError(
                f"pose ranges times novel_margin must stay within {_MAX_ANGLE} rad")
        if not 0.0 <= self.rho_spurious <= 1.0:
            raise ValueError("rho_spurious must lie in [0, 1]")
        if not 0 <= self.corr_scalar < 3 * len(self.figure.skeleton.names):
            raise ValueError("corr_scalar out of range")
        for field, lo in (("n_face", 1), ("n_cameras", 1), ("image_size", 8),
                          ("tex_size", 8)):
            if getattr(self, field) < lo:
                raise ValueError(f"{field} must be at least {lo}")
        for field in ("face_range", "cam_radius", "focal", "sigma_r", "gamma_r"):
            if getattr(self, field) <= 0.0:
                raise ValueError(f"{field} must be positive")


def default_scene(**overrides) -> SceneSpec:
    return SceneSpec(figure=build_figure(), **overrides)


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
    if extend <= 0.0:
        raise ValueError("extend must be positive")
    r = np.repeat(np.asarray(spec.pose_range, dtype=np.float64), 3) * extend
    theta = stream(seed, "frame", frame_id, "theta").uniform(-r, r)
    face = stream(seed, "frame", frame_id, "face").uniform(
        -spec.face_range, spec.face_range, spec.n_face)
    n = float(stream(seed, "frame", frame_id, "hidden").uniform(0.0, 1.0))
    rho = spec.rho_spurious
    if rho > 0.0 and r[spec.corr_scalar] == 0.0:
        raise ValueError("coupled pose scalar has zero range")
    s = math.sqrt(1.0 - rho * rho)
    t = theta[spec.corr_scalar] / (2.0 * r[spec.corr_scalar]) + 0.5 if rho > 0.0 else 0.0
    u = (rho * t + s * n) / (rho + s)
    return theta, face, float(u)
