"""Skeleton, forward kinematics, and the pose DOF map.

Joints are topologically sorted (parent before child). Pose vectors hold
XYZ intrinsic Euler angles in radians, 3 per joint, so theta has length
3J and theta[3j:3j+3] belongs to joint j. Joint transforms returned by
forward kinematics are rest-relative [J,3,4] matrices [R_j | t_j] mapping
x -> R_j x + t_j: identity at theta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def euler_xyz(angles: np.ndarray) -> np.ndarray:
    """[...,3] angles -> [...,3,3] rotation, R = Rx @ Ry @ Rz (intrinsic XYZ)."""
    ax, ay, az = angles[..., 0], angles[..., 1], angles[..., 2]
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    R = np.empty(angles.shape[:-1] + (3, 3), dtype=angles.dtype)
    R[..., 0, 0] = cy * cz
    R[..., 0, 1] = -cy * sz
    R[..., 0, 2] = sy
    R[..., 1, 0] = cx * sz + sx * sy * cz
    R[..., 1, 1] = cx * cz - sx * sy * sz
    R[..., 1, 2] = -sx * cy
    R[..., 2, 0] = sx * sz - cx * sy * cz
    R[..., 2, 1] = sx * cz + cx * sy * sz
    R[..., 2, 2] = cx * cy
    return R


def _chain(parents, rot, t):
    """World rotations [...,J,3,3] and translations [...,J,3] of
    parent-relative rotations rot [...,J,3,3] and offsets t [J,3],
    composed root to leaf for each pose along rot's leading axes."""
    wr = np.empty(rot.shape)
    wt = np.empty(rot.shape[:-1])
    for j, p in enumerate(parents):
        if p < 0:
            wr[..., j, :, :], wt[..., j, :] = rot[..., j, :, :], t[j]
        else:
            wr[..., j, :, :] = wr[..., p, :, :] @ rot[..., j, :, :]
            wt[..., j, :] = wr[..., p, :, :] @ t[j] + wt[..., p, :]
    return wr, wt


@dataclass(frozen=True)
class Skeleton:
    names: tuple
    parents: np.ndarray          # [J] int, -1 for the root
    rest_rot: np.ndarray         # [J,3,3]
    rest_t: np.ndarray           # [J,3]
    # rest-pose world transforms, filled in __post_init__
    rest_world_rot: np.ndarray = field(init=False, repr=False)
    rest_world_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        J = len(self.names)
        parents = np.asarray(self.parents, dtype=int)
        if parents.shape != (J,) or self.rest_rot.shape != (J, 3, 3) or self.rest_t.shape != (J, 3):
            raise ValueError("inconsistent skeleton arrays")
        for j, p in enumerate(parents):
            if not (p < j):
                raise ValueError(f"joint {j} has parent {p}; joints must be topologically sorted")
        for j in range(J):
            R = self.rest_rot[j]
            if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
                raise ValueError(f"rest rotation of joint {j} is not orthonormal")
        wr, wt = _chain(parents, self.rest_rot, self.rest_t)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "rest_world_rot", wr)
        object.__setattr__(self, "rest_world_t", wt)

    @property
    def joint_count(self) -> int:
        return len(self.names)

    @property
    def dof(self) -> int:
        return 3 * len(self.names)


def forward_kinematics(skel: Skeleton, theta: np.ndarray) -> np.ndarray:
    """Rest-relative joint transforms [...,J,3,4] of poses theta [...,P],
    each pose composed on its own."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[-1:] != (skel.dof,):
        raise ValueError(f"theta has shape {theta.shape}, expected (..., {skel.dof})")
    Rl = euler_xyz(theta.reshape(theta.shape[:-1] + (skel.joint_count, 3)))
    wr, wt = _chain(skel.parents, skel.rest_rot @ Rl, skel.rest_t)
    # rest-relative: S_j = A_j(theta) o A_j(0)^{-1}
    R0, t0 = skel.rest_world_rot, skel.rest_world_t
    S_R = wr @ R0.transpose(0, 2, 1)
    S_t = wt - np.einsum("...jrc,jc->...jr", S_R, t0)
    return np.concatenate([S_R, S_t[..., None]], axis=-1)
