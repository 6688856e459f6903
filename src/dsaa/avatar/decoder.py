"""Signal-conditioned decoder: tiled latent bottleneck, two upsampling
stages, localized-embedding concat, then a geometry head and a texture
branch."""

from __future__ import annotations

import numpy as np

from .. import diffcore as dc
from ..conditioning import tile2d

__all__ = ["AvatarDecoder"]


class AvatarDecoder:
    """z is broadcast over a (geo_res/4)^2 bottleneck and upsampled twice;
    pose/face embeddings join at geo_res where a 3x3 trunk mixes them. A
    call returns the 1x1 geometry head's displacement map at geo_res and
    the trunk; `texture(trunk, views)` upsamples once more and runs tex1's
    3x3 conv over it once for all views. Each view adds its share of tex1
    (the view vector tiled, a constant zero-padded map) as a bias map with
    one value per row and column class (top/left border, interior,
    bottom/right border): tex1 over the view tiled 3x3, spread to TxT by
    0/1 matrices. A 1x1 head and a sigmoid keep texels in (0, 1). It
    returns one [3,T,T] texture per view."""

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
        self._bottleneck = config.geo_res // 4
        self._geo_res = config.geo_res
        self._tex_res = config.tex_res
        # row (and column) i of the TxT map -> its class among the 3x3
        self._spread = np.eye(3, dtype=dt)[np.r_[0, np.ones(config.tex_res - 2, int), 2]]

    def __call__(self, z: dc.Tensor, e_pose: dc.Tensor, e_face: dc.Tensor):
        g, gr = self._bottleneck, self._geo_res
        zm = dc.reshape(tile2d(z, g, g), (1, z.data.shape[0], g, g))
        x = dc.conv_transpose2d(zm, self.w_up1, self.b_up1, act="leaky")
        x = dc.conv_transpose2d(x, self.w_up2, self.b_up2, act="leaky")
        ep = dc.reshape(e_pose, (1,) + tuple(e_pose.shape))
        ef = dc.reshape(e_face, (1,) + tuple(e_face.shape))
        trunk = dc.conv2d(dc.concat([x, ep, ef], axis=1), self.w_trunk,
                          self.b_trunk, padding=1, act="leaky")
        disp = dc.reshape(dc.conv2d(trunk, self.w_geo, self.b_geo, act=None), (3, gr, gr))
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
            bias = dc.matmul(dc.matmul(self._spread, bias), self._spread.T)
            tex = dc.conv2d(dc.add(tx, bias, act="leaky"), self.w_tex2, self.b_tex2,
                            act="sigmoid")
            textures.append(dc.reshape(tex, (3, tr, tr)))
        return textures
