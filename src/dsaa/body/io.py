"""Mesh file I/O: ASCII OBJ subset plus a skinning-weights sidecar.

The subset is v / vt / f with v/vt indices, and the v and vt indices of
every face corner must agree (per-vertex UVs). Floats are written with
%.17g so save -> load round-trips float64 exactly.
"""

from __future__ import annotations

import numpy as np

from .mesh import TemplateMesh


def save_obj(path, verts: np.ndarray, faces: np.ndarray, uvs: np.ndarray) -> None:
    with open(path, "w") as f:
        for v in verts:
            f.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in uvs:
            f.write(f"vt {t[0]:.17g} {t[1]:.17g}\n")
        for a, b, c in faces + 1:
            f.write(f"f {a}/{a} {b}/{b} {c}/{c}\n")


def load_obj(path):
    verts, uvs, faces = [], [], []
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "vt":
                uvs.append([float(x) for x in parts[1:3]])
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise ValueError(f"{path}:{ln}: only triangles are supported")
                tri = []
                for corner in parts[1:]:
                    vi, _, ti = corner.partition("/")
                    if not ti:
                        raise ValueError(f"{path}:{ln}: face corners need v/vt indices")
                    if vi != ti:
                        raise ValueError(
                            f"{path}:{ln}: v/vt indices must match (per-vertex UVs)")
                    tri.append(int(vi) - 1)
                faces.append(tri)
            # other OBJ keywords are ignored
    return (np.array(verts, dtype=np.float64),
            np.array(faces, dtype=np.intp),
            np.array(uvs, dtype=np.float64))


def save_weights(path, weights: np.ndarray) -> None:
    """One line per vertex: vertex index then J floats."""
    with open(path, "w") as f:
        for i, row in enumerate(weights):
            f.write(" ".join([str(i)] + [f"{w:.17g}" for w in row]) + "\n")


def load_weights(path) -> np.ndarray:
    rows = {}
    J = None
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            idx = int(parts[0])
            w = [float(x) for x in parts[1:]]
            J = len(w) if J is None else J
            if len(w) != J:
                raise ValueError(f"inconsistent joint count at vertex {idx}")
            rows[idx] = w
    if not rows:
        raise ValueError(f"weights sidecar {path} holds no rows")
    V = max(rows) + 1
    if set(rows) != set(range(V)):
        raise ValueError("weights sidecar must cover every vertex exactly once")
    return np.array([rows[i] for i in range(V)], dtype=np.float64)


def save_mesh(obj_path, weights_path, mesh: TemplateMesh) -> None:
    save_obj(obj_path, mesh.verts, mesh.faces, mesh.uvs)
    save_weights(weights_path, mesh.weights)


def load_mesh(obj_path, weights_path) -> TemplateMesh:
    verts, faces, uvs = load_obj(obj_path)
    weights = load_weights(weights_path)
    return TemplateMesh(verts, faces, uvs, weights)
