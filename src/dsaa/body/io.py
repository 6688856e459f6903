"""Mesh file I/O: an ASCII OBJ subset.

The subset is v / vt / f with v/vt indices, and the v and vt indices of
every face corner must agree (per-vertex UVs). Floats are written with
%.17g so save -> load round-trips float64 exactly.
"""

from __future__ import annotations

import numpy as np


def save_obj(path, verts: np.ndarray, faces: np.ndarray, uvs: np.ndarray) -> None:
    corners = np.repeat(np.asarray(faces) + 1, 2, axis=1)   # v/vt pairs
    with open(path, "w") as f:
        f.write("v %.17g %.17g %.17g\n" * len(verts) % tuple(np.ravel(verts).tolist()))
        f.write("vt %.17g %.17g\n" * len(uvs) % tuple(np.ravel(uvs).tolist()))
        f.write("f %d/%d %d/%d %d/%d\n" * len(corners) % tuple(corners.ravel().tolist()))


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

