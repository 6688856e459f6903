"""Spatially localized driving-signal conditioning."""

from .signal import DrivingSignal, tile2d
from .masks import InfluenceMask, build_masks
from .encode import LocalizedProjector
from .heatmap import influence_heatmap

__all__ = [
    "DrivingSignal", "tile2d",
    "InfluenceMask", "build_masks",
    "LocalizedProjector",
    "influence_heatmap",
]
