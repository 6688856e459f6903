"""Articulation: skeleton, forward kinematics, skinning, Laplacian, atlas."""

from .skeleton import Skeleton, euler_xyz, forward_kinematics
from .mesh import TemplateMesh, mesh_laplacian
from .lbs import lbs_apply
from .atlas import TexelAtlas, build_atlas, render_position_map

__all__ = [
    "Skeleton", "euler_xyz", "forward_kinematics",
    "TemplateMesh", "mesh_laplacian",
    "lbs_apply",
    "TexelAtlas", "build_atlas", "render_position_map",
]
