"""Region-of-influence masks derived from LBS skinning weights.

A joint's mask marks texels whose UV cell receives a vertex carrying at
least tau of that joint's weight; the owning face's corners count as well,
so large triangles do not punch holes in their own region. One texel of
dilation closes seams between adjacent cells. All three rotation scalars
of a joint share its mask; face channels reuse the head joint's region.
"""

from dataclasses import dataclass

import numpy as np

from ..body import Skeleton, TemplateMesh, TexelAtlas

__all__ = ["InfluenceMask", "build_masks"]


@dataclass(frozen=True)
class InfluenceMask:
    data: np.ndarray          # [N,h,w] uint8, entries in {0,1}
    names: tuple

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.uint8)
        if data.ndim != 3:
            raise ValueError("mask tensor must be [N,h,w]")
        if not np.isin(data, (0, 1)).all():
            raise ValueError("mask entries must be binary")
        if len(self.names) != data.shape[0]:
            raise ValueError("one name per channel required")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_pose(self) -> int:
        return sum(1 for n in self.names if n.startswith("pose:"))

    @property
    def n_face(self) -> int:
        return sum(1 for n in self.names if n.startswith("face:"))

    def pose(self) -> np.ndarray:
        return self.data[: self.n_pose]

    def face(self) -> np.ndarray:
        return self.data[self.n_pose: self.n_pose + self.n_face]


def dilate(mask) -> np.ndarray:
    """One texel of 8-neighbourhood dilation (a 3x3 conv's reach), as bool."""
    m = np.asarray(mask).astype(bool)
    out = m.copy()
    h, w = m.shape
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            src = m[max(0, -di): h - max(0, di), max(0, -dj): w - max(0, dj)]
            out[max(0, di): h - max(0, -di), max(0, dj): w - max(0, -dj)] |= src
    return out


def build_masks(template: TemplateMesh, skeleton: Skeleton,
                atlas: TexelAtlas, *, tau: float, n_face: int,
                head_joint: str) -> InfluenceMask:
    """Binary per-scalar influence channels on the grid of `atlas`, the
    template's UV atlas."""
    height, width = atlas.height, atlas.width
    J = skeleton.joint_count
    if template.weights.shape[1] != J:
        raise ValueError("weight columns must match joint count")

    peak = np.zeros((J, height, width))
    iv = np.clip((template.uvs[:, 1] * height).astype(int), 0, height - 1)
    ju = np.clip((template.uvs[:, 0] * width).astype(int), 0, width - 1)
    np.maximum.at(peak, (slice(None), iv, ju), template.weights.T)

    ti, tj = np.nonzero(atlas.valid)
    corner = template.faces[atlas.face_idx[ti, tj]]     # [T,3]
    np.maximum.at(peak, (slice(None), ti, tj),
                  template.weights[corner].max(axis=1).T)

    joint_mask = np.zeros((J, height, width), dtype=np.uint8)
    for j in range(J):
        m = dilate(peak[j] >= tau)
        if not m.any():
            raise ValueError(
                f"joint {skeleton.names[j]!r} has no texel above tau={tau}")
        joint_mask[j] = m

    if head_joint not in skeleton.names:
        raise ValueError(f"skeleton has no joint named {head_joint!r}")

    channels = list(np.repeat(joint_mask, 3, axis=0))
    channels += [joint_mask[skeleton.names.index(head_joint)]] * n_face
    names = [f"pose:{name}:{axis}" for name in skeleton.names
             for axis in ("rx", "ry", "rz")]
    names += [f"face:{k}" for k in range(n_face)]
    return InfluenceMask(np.stack(channels), tuple(names))

