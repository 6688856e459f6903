"""Frozen-ray hemisphere visibility over the posed template."""

from .ao import (AOSamplerConfig, AOMap, vertex_normals, build_frames,
                 stratified_square, hemisphere_dirs, TexelRays, texel_rays,
                 texel_geometry, UniformGrid, compute_ao)

__all__ = [
    "AOSamplerConfig", "AOMap", "vertex_normals", "build_frames",
    "stratified_square", "hemisphere_dirs", "TexelRays", "texel_rays",
    "texel_geometry", "UniformGrid", "compute_ao",
]
