"""Procedural stylized figure: open tube segments on an 11-joint rig.

Each body part is a cylinder strip with its own rectangular UV island;
the seam column is duplicated so every island unwraps to a plain grid.
Skinning blends each tube to its parent joint over the proximal end and
binds the rest rigidly, which keeps every joint in sole control of some
surface and keeps blended transforms far from singular inside the pose
ranges used by the samplers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..body import Skeleton, TemplateMesh

__all__ = ["Figure", "build_figure", "figure_bytes"]

_JOINTS = (
    # name, parent, rest-pose world position
    ("root", -1, (0.0, 0.0, 0.0)),
    ("spine", 0, (0.0, 0.28, 0.0)),
    ("head", 1, (0.0, 0.52, 0.0)),
    ("shoulder_l", 1, (0.16, 0.46, 0.0)),
    ("elbow_l", 3, (0.46, 0.46, 0.0)),
    ("shoulder_r", 1, (-0.16, 0.46, 0.0)),
    ("elbow_r", 5, (-0.46, 0.46, 0.0)),
    ("hip_l", 0, (0.09, -0.06, 0.0)),
    ("knee_l", 7, (0.09, -0.42, 0.0)),
    ("hip_r", 0, (-0.09, -0.06, 0.0)),
    ("knee_r", 9, (-0.09, -0.42, 0.0)),
)

# name, p0, p1, radius, n_around, n_along, (own joint, blend joint), clothed
_PARTS = (
    ("torso", (0.0, -0.12, 0.0), (0.0, 0.52, 0.0), 0.16, 12, 10, ("spine", "root"), True),
    ("head", (0.0, 0.50, 0.0), (0.0, 0.78, 0.0), 0.095, 8, 6, ("head", "spine"), False),
    ("uarm_l", (0.16, 0.46, 0.0), (0.46, 0.46, 0.0), 0.055, 7, 6, ("shoulder_l", "spine"), True),
    ("farm_l", (0.46, 0.46, 0.0), (0.78, 0.46, 0.0), 0.050, 7, 6, ("elbow_l", "shoulder_l"), True),
    ("uarm_r", (-0.16, 0.46, 0.0), (-0.46, 0.46, 0.0), 0.055, 7, 6, ("shoulder_r", "spine"), True),
    ("farm_r", (-0.46, 0.46, 0.0), (-0.78, 0.46, 0.0), 0.050, 7, 6, ("elbow_r", "shoulder_r"), True),
    ("thigh_l", (0.09, -0.06, 0.0), (0.09, -0.42, 0.0), 0.075, 7, 6, ("hip_l", "root"), True),
    ("shin_l", (0.09, -0.42, 0.0), (0.09, -0.80, 0.0), 0.060, 7, 6, ("knee_l", "hip_l"), True),
    ("thigh_r", (-0.09, -0.06, 0.0), (-0.09, -0.42, 0.0), 0.075, 7, 6, ("hip_r", "root"), True),
    ("shin_r", (-0.09, -0.42, 0.0), (-0.09, -0.80, 0.0), 0.060, 7, 6, ("knee_r", "hip_r"), True),
)

# 5x2 island grid; the margin keeps >=1.6 texels of gap at a 32x32 atlas,
# so masks dilated by one texel never leak into a neighboring island
_ISLAND_MARGIN = 0.025


@dataclass(frozen=True, eq=False)
class Figure:
    """Template mesh, rig, and the UV island table the generators use."""

    template: TemplateMesh
    skeleton: Skeleton
    islands: dict                # name -> (u0, v0, u1, v1)
    island_of: np.ndarray        # [V] island index into island_names
    island_names: tuple
    normals: np.ndarray          # [V,3] outward (radial) directions
    clothed: tuple               # island names carrying wrinkles/stripes
    head_island: str


def _basis(axis):
    ref = np.array([0.0, 0.0, 1.0]) if abs(axis[1]) > 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(ref, axis)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(axis, e1)


def _blend(name: str, s: float) -> float:
    """Weight of the part's own joint at axial position s in [0, 1]."""
    if name == "torso":
        return float(np.clip((s - 0.35) / 0.30, 0.0, 1.0))
    if name == "head":
        return float(np.clip(s / 0.25, 0.0, 1.0))
    return float(np.clip(0.5 + 0.5 * s / 0.30, 0.5, 1.0))


def build_figure() -> Figure:
    """Deterministic construction of the figure, with read-only arrays:
    `SceneSpec.figure` shares one build with every caller."""
    names = tuple(j[0] for j in _JOINTS)
    parents = np.array([j[1] for j in _JOINTS])
    world = np.array([j[2] for j in _JOINTS])
    rest_t = np.array([w if p < 0 else w - world[p]
                       for (w, p) in zip(world, parents)])
    eye = np.broadcast_to(np.eye(3), (len(names), 3, 3)).copy()
    skel = Skeleton(names, parents, eye, rest_t)
    jidx = {n: i for i, n in enumerate(names)}

    cells = [(c, r) for r in range(2) for c in range(5)]
    islands = {}
    for (part, cell) in zip(_PARTS, cells):
        c, r = cell
        islands[part[0]] = (0.2 * c + _ISLAND_MARGIN, 0.5 * r + _ISLAND_MARGIN,
                            0.2 * (c + 1) - _ISLAND_MARGIN, 0.5 * (r + 1) - _ISLAND_MARGIN)

    verts, uvs, normals, faces = [], [], [], []
    weights, island_of = [], []
    island_names = tuple(p[0] for p in _PARTS)
    for pi, (name, p0, p1, radius, n_around, n_along, (own, blend), _) in enumerate(_PARTS):
        p0 = np.asarray(p0)
        p1 = np.asarray(p1)
        axis = (p1 - p0) / np.linalg.norm(p1 - p0)
        e1, e2 = _basis(axis)
        u0, v0, u1, v1 = islands[name]
        base = len(verts)
        for row in range(n_along):
            s = row / (n_along - 1)
            center = p0 + s * (p1 - p0)
            wp = _blend(name, s)
            for col in range(n_around + 1):
                phi = 2.0 * np.pi * col / n_around
                radial = np.cos(phi) * e1 + np.sin(phi) * e2
                verts.append(center + radius * radial)
                normals.append(radial)
                uvs.append([u0 + (col / n_around) * (u1 - u0),
                            v0 + s * (v1 - v0)])
                w = np.zeros(len(names))
                w[jidx[own]] = wp
                w[jidx[blend]] = 1.0 - wp
                weights.append(w)
                island_of.append(pi)
        cols = n_around + 1
        for row in range(n_along - 1):
            for col in range(n_around):
                a = base + row * cols + col
                b = a + 1
                c = a + cols + 1
                d = a + cols
                faces.append([a, b, c])
                faces.append([a, c, d])

    tpl = TemplateMesh(np.asarray(verts), np.asarray(faces),
                       np.asarray(uvs), np.asarray(weights))
    clothed = tuple(p[0] for p in _PARTS if p[7])
    fig = Figure(template=tpl, skeleton=skel, islands=islands,
                 island_of=np.asarray(island_of), island_names=island_names,
                 normals=np.asarray(normals), clothed=clothed,
                 head_island="head")
    for a in (tpl.verts, tpl.faces, tpl.uvs, tpl.weights, skel.parents,
              skel.rest_rot, skel.rest_t, skel.rest_world_rot,
              skel.rest_world_t, fig.island_of, fig.normals):
        a.flags.writeable = False
    return fig


def figure_bytes(fig: Figure) -> bytes:
    """Canonical byte dump of everything that defines the figure."""
    t = fig.template
    parts = [",".join(fig.skeleton.names).encode(),
             np.asarray(fig.skeleton.parents, dtype=np.int64).tobytes(),
             fig.skeleton.rest_rot.tobytes(), fig.skeleton.rest_t.tobytes(),
             t.verts.tobytes(), np.asarray(t.faces, dtype=np.int64).tobytes(),
             t.uvs.tobytes(), t.weights.tobytes(),
             ",".join(fig.island_names).encode(),
             np.asarray(fig.island_of, dtype=np.int64).tobytes(),
             fig.normals.tobytes(),
             ",".join(fig.clothed).encode(), fig.head_island.encode()]
    for name in fig.island_names:
        parts.append(np.asarray(fig.islands[name], dtype=np.float64).tobytes())
    return b"\x00".join(parts)
