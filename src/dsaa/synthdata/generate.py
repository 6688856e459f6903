"""Frame synthesis: wrinkle fields, textures, posed meshes, renders.

Everything here is a pure function of (spec, theta, face, u), which is
what makes stored frames reproducible bit for bit: the texture and mesh
rebuilt from the factors `load_frame` draws from the frame's manifest
entry must render and quantize to exactly the bytes on disk.
"""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc
from ..body import forward_kinematics, lbs_apply
from ..renderer import rasterize
from .scene import SceneSpec, raster_config, scene_cameras

__all__ = ["wrinkle_displacement", "frame_texture", "frame_mesh",
           "render_views"]


def _island_coords(fig, name, pts):
    """Map UV points into [0,1]^2 island-local coordinates."""
    u0, v0, u1, v1 = fig.islands[name]
    return (pts[..., 0] - u0) / (u1 - u0), (pts[..., 1] - v0) / (v1 - v0)


def wrinkle_displacement(spec: SceneSpec, u: float) -> np.ndarray:
    """Radial fold field on the clothed islands, phase driven by u.

    Returns a [V,3] canonical-space offset that is exactly zero off the
    clothed islands.
    """
    fig = spec.figure
    out = np.zeros_like(fig.template.verts)
    for name in fig.clothed:
        pick = fig.island_of == fig.island_names.index(name)
        _, lv = _island_coords(fig, name, fig.template.uvs[pick])
        amp = spec.wrinkle_amp * np.sin(
            2.0 * np.pi * spec.wrinkle_freq * lv + spec.phase_span * u)
        out[pick] = amp[:, None] * fig.normals[pick]
    return out


def frame_mesh(spec: SceneSpec, theta: np.ndarray, u: float):
    """Canonical (wrinkled) and posed vertices for one frame."""
    fig = spec.figure
    canonical = fig.template.verts + wrinkle_displacement(spec, u)
    mats = forward_kinematics(fig.skeleton, np.asarray(theta, dtype=np.float64))
    posed = lbs_apply(canonical, mats, fig.template.weights)
    return canonical, posed


def _texel_grid(fig, name, size):
    """Texel-center hit mask and local coordinates for one island."""
    u0, v0, u1, v1 = fig.islands[name]
    centers = (np.arange(size) + 0.5) / size
    cu, cv = np.meshgrid(centers, centers, indexing="xy")  # cv rows, cu cols
    inside = (cu >= u0) & (cu <= u1) & (cv >= v0) & (cv <= v1)
    lu = (cu - u0) / (u1 - u0)
    lv = (cv - v0) / (v1 - v0)
    return inside, lu, lv


_FACE_SITES = ((0.30, 0.35, 0.12), (0.70, 0.35, 0.12),
               (0.50, 0.62, 0.15), (0.50, 0.85, 0.10))


def frame_texture(spec: SceneSpec, u: float, face: np.ndarray) -> np.ndarray:
    """[3,T,T] albedo: base + u-shifted stripes + face-driven head blobs."""
    face = np.asarray(face, dtype=np.float64)
    if face.shape != (spec.n_face,):
        raise ValueError("face vector has the wrong length")
    fig = spec.figure
    size = spec.tex_size
    tex = np.empty((3, size, size))
    tex[:] = np.asarray(spec.base_albedo)[:, None, None]
    for name in fig.clothed:
        inside, _, lv = _texel_grid(fig, name, size)
        stripe = spec.stripe_amp * np.sin(
            2.0 * np.pi * spec.stripe_freq * lv + spec.phase_span * u)
        tex[:, inside] += stripe[inside]
    inside, lu, lv = _texel_grid(fig, fig.head_island, size)
    pattern = np.zeros((size, size))
    for k in range(spec.n_face):
        cu, cv, sigma = _FACE_SITES[k % len(_FACE_SITES)]
        scale = 1.0 + k // len(_FACE_SITES)  # reuse sites wider if n_face > 4
        bump = np.exp(-(((lu - cu) ** 2 + (lv - cv) ** 2)
                        / (2.0 * (sigma * scale) ** 2)))
        pattern += face[k] * bump
    tex[:, inside] += spec.face_amp * pattern[inside]
    return np.clip(tex, 0.0, 1.0)


def render_views(spec: SceneSpec, posed: np.ndarray, texture: np.ndarray):
    """Forward-only render of one frame from every ring camera.

    Returns (images, masks) as float arrays, [3,H,W] and [H,W] each.
    """
    fig = spec.figure
    cfg = raster_config(spec)
    verts = dc.Tensor(np.asarray(posed, dtype=np.float64))
    tex = dc.Tensor(np.asarray(texture, dtype=np.float64))
    images, masks = [], []
    with dc.no_grad():
        for cam in scene_cameras(spec):
            target = rasterize(verts, fig.template.faces, fig.template.uvs,
                               tex, cam, cfg)
            images.append(target.image.data.copy())
            masks.append(target.mask.data.copy())
    return images, masks
