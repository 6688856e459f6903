"""Composition into the final avatar: posing (corrective displacement
sampled at vertex UVs, then blend skinning) and gain-modulated texture."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc
from ..body import Skeleton, TemplateMesh, forward_kinematics, lbs_apply

__all__ = ["AvatarOutput", "Posing", "apply_gain", "compose", "pose"]


@dataclass
class AvatarOutput:
    posed: dc.Tensor           # [V,3] after blend skinning
    final: dc.Tensor           # [3,Ht,Wt] gain-modulated, clamped to [0,1]


def apply_gain(textures: list[dc.Tensor], gain: dc.Tensor) -> list[dc.Tensor]:
    """Multiply each texture (one per view, all [3,H,W]) by the quarter-res
    gain, bilinearly upsampled once for all of them, clamped to [0, 1]."""
    _, H, W = textures[0].shape
    if H % 4 or W % 4 or tuple(gain.shape) != (1, H // 4, W // 4):
        raise ValueError(f"gain must be [1,{H // 4},{W // 4}] for a "
                         f"{H}x{W} texture, got {tuple(gain.shape)}")
    up = dc.upsample2d(gain, 4)
    return [dc.clamp(dc.mul(t, up), 0.0, 1.0) for t in textures]


class Posing:
    """Posing for one rig and displacement maps of one dtype, its
    constants made once, when built: the template vertices and skinning
    weights in that dtype. A model keeps one for all of its steps.

    It takes a batch only: thetas [B,P] with maps [B,3,G,G], posed to
    [B,V,3] by one `forward_kinematics` over all the poses, one
    `texture_sample` over all the maps at the template UVs and one
    `lbs_apply`, each frame under its own pose. Nothing is kept per pose."""

    def __init__(self, template: TemplateMesh, skeleton: Skeleton, dtype):
        self.template = template
        self.skeleton = skeleton
        self.verts = template.verts.astype(dtype)
        self.weights = template.weights.astype(dtype)

    def __call__(self, thetas, displacement: dc.Tensor) -> dc.Tensor:
        if np.ndim(thetas) != 2 or displacement.ndim != 4:
            raise ValueError(f"posing takes poses [B,P] with displacement maps "
                             f"[B,3,G,G], got {list(np.shape(thetas))} and "
                             f"{list(displacement.shape)}")
        corrective = dc.texture_sample(displacement, self.template.uvs)  # [B,V,3]
        canonical = dc.add(corrective, self.verts)
        posed = lbs_apply(canonical, forward_kinematics(self.skeleton, thetas),
                          self.weights)
        if not np.isfinite(posed.data).all():
            raise ValueError("composed geometry has non-finite vertices")
        return posed


def pose(theta, displacement: dc.Tensor, template: TemplateMesh,
         skeleton: Skeleton) -> dc.Tensor:
    """Posed vertices [V,3] of one frame, its pose theta [P] and its
    displacement map [3,G,G] run through `Posing` as a batch of one;
    differentiable in displacement.

    theta is a plain pose vector (posing is a constant transform per
    joint). The corrective, sampled at the vertex UVs, is additive, so
    zero displacement leaves exactly the skinned template.
    """
    posing = Posing(template, skeleton, displacement.dtype)
    batch = dc.reshape(displacement, (1,) + tuple(displacement.shape))
    return dc.getitem(posing(np.asarray(theta)[None], batch), 0)


def compose(theta, displacement: dc.Tensor, texture: dc.Tensor,
            gain: dc.Tensor, template: TemplateMesh,
            skeleton: Skeleton) -> AvatarOutput:
    """Build one frame's posed, shaded avatar: `pose` plus the
    gain-modulated texture; differentiable in displacement, texture and
    gain."""
    return AvatarOutput(pose(theta, displacement, template, skeleton),
                        apply_gain([texture], gain)[0])
