"""Template mesh container and the uniform graph Laplacian."""

from __future__ import annotations

import numpy as np


class TemplateMesh:
    """Canonical-pose mesh with per-vertex UVs and skinning weights.

    Treat as immutable after construction; the 1-ring neighbor table
    (`neighbor_table`) is built on first use and cached.
    """

    def __init__(self, verts: np.ndarray, faces: np.ndarray,
                 uvs: np.ndarray, weights: np.ndarray):
        self.verts = np.asarray(verts, dtype=np.float64)
        self.faces = np.asarray(faces, dtype=np.intp)
        self.uvs = np.asarray(uvs, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        V = self.verts.shape[0]
        if self.verts.ndim != 2 or self.verts.shape[1] != 3:
            raise ValueError("verts must be [V,3]")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be [F,3]")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= V):
            raise ValueError("faces index out-of-range vertices")
        if self.uvs.shape != (V, 2):
            raise ValueError("uvs must be [V,2]")
        if self.uvs.min() < 0.0 or self.uvs.max() > 1.0:
            raise ValueError("uvs must lie in the unit square")
        if self.weights.ndim != 2 or self.weights.shape[0] != V:
            raise ValueError("weights must be [V,J]")
        if self.weights.min() < -1e-12:
            raise ValueError("negative skinning weight")
        rowsum = self.weights.sum(axis=1)
        if np.max(np.abs(rowsum - 1.0)) > 1e-9:
            raise ValueError("skinning weight rows must sum to 1")
        self._nbr = None

    @property
    def vertex_count(self) -> int:
        return self.verts.shape[0]

    def neighbor_table(self):
        """(indices [V,Dmax], inv_degree [V]): 1-ring neighbors, rows padded
        with the vertex's own index so padded differences vanish exactly."""
        if self._nbr is None:
            V = self.vertex_count
            adj = [set() for _ in range(V)]
            for a, b, c in self.faces:
                adj[a].update((b, c))
                adj[b].update((a, c))
                adj[c].update((a, b))
            degs = np.array([len(nb) for nb in adj])
            if (degs == 0).any():
                v = int(np.nonzero(degs == 0)[0][0])
                raise ValueError(f"vertex {v} is isolated (no neighbors)")
            dmax = int(degs.max())
            idx = np.empty((V, dmax), dtype=np.intp)
            for v, nb in enumerate(adj):
                row = sorted(nb)
                idx[v, :len(row)] = row
                idx[v, len(row):] = v
            self._nbr = (idx, 1.0 / degs)
        return self._nbr


def mesh_laplacian(mesh: TemplateMesh, verts):
    """Differential coordinates L(x)_i = x_i - mean of 1-ring neighbors,
    computed as -mean of neighbor differences (x_u - x_i). The difference
    form annihilates constants bitwise, so exactly-representable
    translations leave the result bit-identical.

    verts [..., V, 3]: a float array, one mesh or a batch; the result has
    its shape and dtype. The differences are summed over a leading neighbor
    slot axis, whole slots in slot order, so a frame's bytes are its own.
    """
    idx, inv_deg = mesh.neighbor_table()
    v = np.asarray(verts)
    scale = inv_deg[:, None].astype(v.dtype)
    diffs = np.take(v, idx.T, axis=-2) - v[..., None, :, :]  # [...,Dmax,V,3]
    return -diffs.sum(axis=-3) * scale
