"""Signal-conditioned decoder: the latent on a small tile, two upsampling
stages and its share of the trunk, spread to the geometry grid, where
the localized embeddings join; then a geometry head and a texture
branch."""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc
from ..conditioning import tile2d

__all__ = ["AvatarDecoder"]


def _spread(size: int, edge: int, period: int, dt) -> np.ndarray:
    """[size, k] 0/1 matrix taking row i of a size-row map to its class
    among k = 2*edge + period: the `edge` rows at either border each keep
    their own class and interior rows repeat with `period`, so a k-row
    map holds every class once. For size <= k it is the identity."""
    k = 2 * edge + period
    if size <= k:
        return np.eye(size, dtype=dt)
    r = np.arange(size)
    cls = np.where(r < edge, r,
                   np.where(r >= size - edge, r - (size - k), edge + (r - edge) % period))
    return np.eye(k, dtype=dt)[cls]


class AvatarDecoder:
    """z is tiled on a t x t grid, t = min(geo_res/4, 3), and upsampled
    twice (up1, up2: 4x4 stride-2 transposed convs) to 4t; the trunk's
    first width_geo input channels (no bias) run over that, and 0/1
    matrices spread the [width_geo, 4t, 4t] map's rows and columns to
    geo_res. The pose/face embeddings' share (the trunk's other channels
    and its bias) runs at geo_res and is added before the activation.

    This equals the trunk over z broadcast to (geo_res/4)^2, upsampled and
    concatenated with the embeddings. On a constant input a 4x4 stride-2
    transposed conv leaves 1 edge row (and column) at each border and a
    period-2 interior; after up2 that is 3 edge rows and period 4, after
    the trunk's 3x3 conv 4 edge rows and period 4. So the 12x12 map holds
    every row class and column class (4 top, 4 interior, 4 bottom), and
    with n = geo_res/4 row r of the full map is class r for r < 4,
    r - (4n - 12) for r >= 4n - 4 and 4 + (r - 4) mod 4 otherwise. For
    geo_res <= 12 the tile is the whole bottleneck and the spread the
    identity.

    A call takes a batch of frames only, runs it through each layer at
    once and returns the 1x1 geometry head's displacement maps at
    geo_res and the trunk, [B,...] each. Its forward products stay within
    a frame, so a frame's outputs are those of a batch of that frame
    alone; the weight gradients sum the batch in one product.
    `texture(trunk, views)` takes one frame's [1,wg,G,G] trunk (its
    64x64 layers ran slower over a batch), upsamples once more and runs
    tex1's 3x3 conv over it once for all views. Each view adds its share
    of tex1 (the view vector tiled, a constant zero-padded map) as a bias
    map with one value per row and column class (1 edge, period 1): tex1
    over the view tiled 3x3, spread to TxT the same way. A 1x1 head and a
    sigmoid keep texels in (0, 1). It returns one [3,T,T] texture per
    view."""

    def __init__(self, store: dc.ParamStore, prefix: str, config,
                 rng: np.random.Generator):
        dt = config.np_dtype
        dz, wg = config.d_z, config.width_geo
        wt, ec = config.width_tex, config.embed_channels

        def deconv(name, ci, co):
            return store.add_layer(f"{prefix}/{name}", (ci, co, 4, 4),
                                   ci * 4.0, co, rng, dt)

        def conv(name, co, ci, k):
            return store.add_layer(f"{prefix}/{name}", (co, ci, k, k),
                                   ci * k * k, co, rng, dt)

        self.w_up1, self.b_up1 = deconv("up1", dz, wg)
        self.w_up2, self.b_up2 = deconv("up2", wg, wg)
        self.w_trunk, self.b_trunk = conv("trunk", wg, wg + 2 * ec, 3)
        self.w_geo, self.b_geo = conv("geo", 3, wg, 1)
        self.w_texup, self.b_texup = deconv("texup", wg, wt)
        self.w_tex1, self.b_tex1 = conv("tex1", wt, wt + 3, 3)
        self.w_tex2, self.b_tex2 = conv("tex2", 3, wt, 1)
        self._dt = dt
        self._tile = min(config.geo_res // 4, 3)
        self._tex_res = config.tex_res
        # row (and column) i of a map -> its class on the small map
        self._geo_spread = _spread(config.geo_res, 4, 4, dt)
        self._tex_spread = _spread(config.tex_res, 1, 1, dt)

    def __call__(self, z: dc.Tensor, e_pose: dc.Tensor, e_face: dc.Tensor):
        """(displacement maps [B,3,G,G], trunk [B,wg,G,G]) of latents
        z [B,d_z] and embeddings [B,C,G,G], each layer one call over the
        batch."""
        if z.ndim != 2 or any(e.ndim != 4 or e.shape[0] != z.shape[0]
                              for e in (e_pose, e_face)):
            raise ValueError(f"decoder takes z [B,d_z] and embeddings "
                             f"[B,C,G,G], got {list(z.shape)}, "
                             f"{list(e_pose.shape)} and {list(e_face.shape)}")
        t = self._tile
        wg = self.w_up2.shape[1]
        x = dc.conv_transpose2d(tile2d(z, t, t), self.w_up1, self.b_up1, act="leaky")
        x = dc.conv_transpose2d(x, self.w_up2, self.b_up2, act="leaky")
        zs = dc.conv2d(x, dc.getitem(self.w_trunk, (slice(None), slice(None, wg))),
                       padding=1)
        zs = dc.matmul(dc.matmul(self._geo_spread, zs), self._geo_spread.T)
        es = dc.conv2d(dc.concat([e_pose, e_face], axis=1),
                       dc.getitem(self.w_trunk, (slice(None), slice(wg, None))),
                       self.b_trunk, padding=1)
        trunk = dc.add(zs, es, act="leaky")
        disp = dc.conv2d(trunk, self.w_geo, self.b_geo, act=None)
        return disp, trunk

    def texture(self, trunk: dc.Tensor, views) -> list[dc.Tensor]:
        tr = self._tex_res
        up = dc.conv_transpose2d(trunk, self.w_texup, self.b_texup, act="leaky")
        wt = up.shape[1]
        tx = dc.conv2d(up, dc.getitem(self.w_tex1, (slice(None), slice(None, wt))),
                       self.b_tex1, padding=1)
        w_view = dc.getitem(self.w_tex1, (slice(None), slice(wt, None)))
        textures = []
        for view in views:
            vmap = np.broadcast_to(np.asarray(view, dtype=self._dt)[None, :, None, None],
                                   (1, 3, 3, 3)).copy()
            bias = dc.conv2d(dc.Tensor(vmap), w_view, padding=1)
            bias = dc.matmul(dc.matmul(self._tex_spread, bias), self._tex_spread.T)
            tex = dc.conv2d(dc.add(tx, bias, act="leaky"), self.w_tex2, self.b_tex2,
                            act="sigmoid")
            textures.append(dc.reshape(tex, (3, tr, tr)))
        return textures
