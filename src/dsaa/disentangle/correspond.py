"""Signal-to-output correspondences for the perturbation penalty."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..body import Skeleton, TemplateMesh, forward_kinematics, lbs_apply

__all__ = ["CorrespondenceSet", "joint_sites"]


@dataclass(frozen=True)
class CorrespondenceSet:
    """Which decoder-output rows correspond to which driving quantities.

    rows[k] selects one output row; target(signal) returns the [K, d]
    values those rows should reproduce, a function of the driving signal
    alone.
    """

    rows: tuple[int, ...]
    target: Callable[[Any], np.ndarray]

    def __post_init__(self):
        if len(self.rows) == 0:
            raise ValueError("correspondence set is empty")
        if any(int(r) != r or r < 0 for r in self.rows):
            raise ValueError("rows must be nonnegative integers")
        if not callable(self.target):
            raise ValueError("target must be callable")


def joint_sites(template: TemplateMesh, skeleton: Skeleton) -> CorrespondenceSet:
    """Anchor every joint at its most strongly bound vertex.

    The target poses the anchors by the signal's pose alone (template
    positions, no corrective displacement), so rows of the composed
    geometry are pulled toward where the skeleton puts them. The target
    takes a DrivingSignal. Ties in the skinning weights resolve to the
    lowest vertex index.
    """
    w = template.weights
    if w.shape[1] != len(skeleton.names):
        raise ValueError(
            f"{w.shape[1]} weight columns for {len(skeleton.names)} joints")
    rows = tuple(int(np.argmax(w[:, j])) for j in range(w.shape[1]))
    anchor_v = template.verts[list(rows)].copy()
    anchor_w = w[list(rows)].copy()

    def target(signal):
        return lbs_apply(anchor_v, forward_kinematics(skeleton, signal.theta),
                         anchor_w)

    return CorrespondenceSet(rows=rows, target=target)
