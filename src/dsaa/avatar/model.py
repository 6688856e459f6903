"""Full model assembly: influence masks, localized projectors, encoder,
decoder, shadow branch, and self-describing checkpoint I/O."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import diffcore as dc
from .. import keyvalue
from ..body import Skeleton, TemplateMesh, build_atlas, render_position_map
from ..conditioning import DrivingSignal, InfluenceMask, LocalizedProjector, build_masks
from ..rng import stream
from .compose import AvatarOutput, Posing, apply_gain, compose
from .config import AvatarConfig, manifest_text, parse_manifest
from .decoder import AvatarDecoder
from .encoder import GeometryEncoder, LatentDistribution
from .shadow import ShadowNet

__all__ = ["AvatarModel"]


class AvatarModel:
    """Everything needed to evaluate (and train) the avatar for one rig.

    Parameters live in a single ParamStore; masks, the UV atlas, and the
    reference position map are derived deterministically from the template
    and skeleton, so a checkpoint plus its manifest reconstructs the model
    exactly; d_z, the widths and the mask parameters are `AvatarConfig`
    constants, not manifest keys.

    Each method takes one calling form. `geometry` (posed vertices,
    decoder trunk) and `displacement` (the corrective maps alone, for the
    perturbation term) take a list of B signals with z [B,d_z], each
    block run once over the batch; a lone frame is a batch of one.
    `appearance` takes one frame's trunk and gain. The harness calls
    these, the blocks `encoder` and `shadow` over a batch, and
    `shadow_gain()` (the unit gain without a shadow branch). `encode`,
    `shadow_gain(ao)` and `decode` wrap one frame as a batch of one for
    `perfbench/probes.py`; `forward` (`decode` + `shadow_gain` +
    `compose`) is the tests' reference.
    """

    def __init__(self, template: TemplateMesh, skeleton: Skeleton,
                 config: AvatarConfig = AvatarConfig(), seed: int = 0):
        self.config = config
        self.template = template
        self.skeleton = skeleton
        dt = config.np_dtype
        g = config.geo_res

        self.atlas = build_atlas(template.uvs, template.faces, g, g)
        masks = build_masks(template, skeleton, self.atlas, tau=config.tau,
                            n_face=config.n_face, head_joint=config.head_joint)
        if not config.spatial_local:
            # ablation: identical channel layout, no locality at all
            masks = InfluenceMask(np.ones_like(masks.data), masks.names)
        self.masks = masks
        ref = render_position_map(template.verts, template.faces, self.atlas)
        self._posing = Posing(template, skeleton, dt)

        self.store = dc.ParamStore()
        init = stream(seed, "init")
        self.proj_pose = LocalizedProjector(
            self.store, "cond/pose", masks.pose(), hidden=config.hidden_signal,
            out_channels=config.embed_channels, rng=init, dtype=dt)
        self.proj_face = LocalizedProjector(
            self.store, "cond/face", masks.face(), hidden=config.hidden_signal,
            out_channels=config.embed_channels, rng=init, dtype=dt)
        self.encoder = (GeometryEncoder(self.store, "enc", ref,
                                        config.enc_channels, config.d_z,
                                        init, dt)
                        if config.use_latent else None)
        self.decoder = AvatarDecoder(self.store, "dec", config, init)
        self.shadow = (ShadowNet(self.store, "shadow", config.shadow_res,
                                 config.shadow_width, init, dt)
                       if config.use_shadow else None)

    # ------------------------------------------------------------- latent

    def encode(self, pos_map) -> LatentDistribution:
        """Latent distribution [d_z] of one unposed-geometry position map
        [3,H,W], encoded as a batch of one."""
        if self.encoder is None:
            raise RuntimeError("model was built without a latent encoder")
        dist = self.encoder(np.asarray(pos_map)[None])
        return LatentDistribution(*(dc.getitem(t, 0)
                                    for t in (dist.mu, dist.sigma)))

    def _latent(self, z, lead: tuple) -> dc.Tensor:
        """z as a model-dtype Tensor of shape lead + (d_z,); None is zeros."""
        shape, dt = lead + (self.config.d_z,), self.config.np_dtype
        if z is None:
            return dc.Tensor(np.zeros(shape, dtype=dt))
        if not self.config.use_latent:
            raise ValueError("z supplied to a latent-free model")
        if isinstance(z, dc.Tensor):
            if z.data.shape != shape:
                raise ValueError(f"z must have shape {shape}, got {z.data.shape}")
            return z
        z = np.asarray(z)
        if z.shape != shape:
            raise ValueError(f"z must have shape {shape}, got {z.shape}")
        if not np.isfinite(z).all():
            raise ValueError("z has non-finite entries")
        return dc.Tensor(z.astype(dt))

    # ------------------------------------------------------------ forward

    def _trunk(self, signals, z):
        """(thetas [B,P], displacement maps, decoder trunk) of a list of B
        driving signals, checked against the masks, at latents z [B,d_z]."""
        if isinstance(signals, DrivingSignal):
            raise ValueError("signals must be a list [B] of driving signals, "
                             "got one")
        if not signals:
            raise ValueError("no driving signals given")
        theta = np.stack([s.theta for s in signals])
        face = np.stack([s.face for s in signals])
        if theta.shape[1:] != (self.masks.n_pose,):
            raise ValueError(f"theta must have {self.masks.n_pose} scalars, "
                             f"got {theta.shape[1:]}")
        if face.shape[1:] != (self.masks.n_face,):
            raise ValueError(f"face must have {self.masks.n_face} scalars, "
                             f"got {face.shape[1:]}")
        zt = self._latent(z, (len(signals),))
        dt = self.config.np_dtype
        # pose and face scalars go through their own localized projectors,
        # cast to the model dtype so embeddings do not silently upcast
        e_pose = self.proj_pose(theta.astype(dt))
        e_face = self.proj_face(face.astype(dt))
        return (theta,) + self.decoder(zt, e_pose, e_face)

    def decode(self, signal: DrivingSignal, z=None):
        """(displacement map [3,G,G], texture [3,T,T]) of one driving
        signal, decoded as a batch of one; z [d_z] defaults to the zero
        vector (maximum-likelihood imputation)."""
        if z is not None:
            z = dc.reshape(self._latent(z, ()), (1, self.config.d_z))
        _, disp, trunk = self._trunk([signal], z)
        return (dc.getitem(disp, 0),
                self.decoder.texture(trunk, [signal.view])[0])

    def displacement(self, signals, z=None) -> dc.Tensor:
        """Displacement maps [B,3,G,G] of B signals at latents z [B,d_z];
        no texture branch, posing or FK."""
        return self._trunk(signals, z)[1]

    def geometry(self, signals, z=None):
        """(posed vertices [B,V,3], decoder trunk [B,wg,G,G]) of B signals
        at latents z [B,d_z]; the views are not read."""
        theta, disp, trunk = self._trunk(signals, z)
        return self._posing(theta, disp), trunk

    def appearance(self, trunk: dc.Tensor, views, gain: dc.Tensor) -> list[dc.Tensor]:
        """Final textures of one frame, one per view, from its [1,wg,G,G]
        trunk and [1,R,R] gain; the view-independent upsamples run once."""
        return apply_gain(self.decoder.texture(trunk, views), gain)

    def shadow_gain(self, ao=None) -> dc.Tensor:
        """Gain [1,R,R] of one frame's AO map [1,R,R], shaded as a batch
        of one; without a shadow branch ao is None and the gain exactly 1,
        for any frame."""
        if self.shadow is None:
            if ao is not None:
                raise ValueError("AO map supplied to a model without a "
                                 "shadow branch")
            r = self.config.shadow_res
            return dc.Tensor(np.ones((1, r, r), dtype=self.config.np_dtype))
        if ao is None:
            raise ValueError("shadow branch needs an ambient-occlusion map")
        return dc.getitem(self.shadow(np.asarray(ao)[None]), 0)

    def forward(self, signal: DrivingSignal, z=None, ao=None) -> AvatarOutput:
        """Decode, shade, and pose one frame."""
        disp, tex = self.decode(signal, z)
        return compose(signal.theta, disp, tex, self.shadow_gain(ao),
                       self.template, self.skeleton)

    # -------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Parameter container at `path` and text manifest at `path`.manifest,
        each replaced whole through `keyvalue.write_atomic`."""
        dc.save_arrays(path, self.store.state_arrays())
        keyvalue.write_atomic(f"{path}.manifest", manifest_text(self.config))

    @classmethod
    def load(cls, path, template: TemplateMesh,
             skeleton: Skeleton) -> "AvatarModel":
        config = parse_manifest(Path(f"{path}.manifest").read_text())
        model = cls(template, skeleton, config)
        arrays = dc.load_arrays(path)
        names = set(model.store.names())
        extra = sorted(set(arrays) - names)
        if extra:
            raise ValueError(f"checkpoint has unexpected arrays: {extra[:4]}")
        missing = sorted(names - set(arrays))
        if missing:
            raise ValueError(f"checkpoint is missing arrays: {missing[:4]}")
        model.store.load_state(arrays)
        return model
