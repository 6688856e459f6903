"""Differentiable soft rasterization and inverse-rendering losses."""

from .camera import Camera, look_at, project
from .raster import RasterConfig, RenderTarget, rasterize
from .losses import (LAM_GEOM, LAM_LAP, add_term, l1_sum, l2_sum,
                     laplacian_loss, losses)

__all__ = ["Camera", "look_at", "project", "RasterConfig", "RenderTarget",
           "rasterize", "LAM_GEOM", "LAM_LAP", "add_term", "l1_sum", "l2_sum",
           "laplacian_loss", "losses"]
