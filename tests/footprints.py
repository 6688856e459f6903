"""Influence footprints of the decoder's architecture, for the locality
tests: the texels of its outputs that one conditioning-mask channel can
reach. Outside them an output is bitwise independent of that channel's
signal scalar."""

import numpy as np

from dsaa.conditioning.masks import dilate


def displacement_footprint(mask) -> np.ndarray:
    """Displacement texels a mask channel can reach: the 3x3 trunk conv
    grows it by one texel and the 1x1 geometry head adds nothing."""
    return dilate(mask)


def texture_footprint(mask) -> np.ndarray:
    """Texture pixels a mask channel can reach: one texel for the trunk,
    then the 4/2/1 transposed conv sends texel i to rows 2i-1..2i+2, then
    one more pixel for the 3x3 tail."""
    m = dilate(mask)
    h, w = m.shape
    up = np.zeros((2 * h, 2 * w), dtype=bool)
    ii, jj = np.nonzero(m)
    for di in (-1, 0, 1, 2):
        for dj in (-1, 0, 1, 2):
            r, c = 2 * ii + di, 2 * jj + dj
            ok = (r >= 0) & (r < 2 * h) & (c >= 0) & (c < 2 * w)
            up[r[ok], c[ok]] = True
    return dilate(up)
