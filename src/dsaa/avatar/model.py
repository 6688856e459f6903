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

    `geometry` (posed vertices, decoder trunk), `shadow_gain` and
    `appearance` (one final texture per view) are all the harness calls,
    with `displacement` (the corrective map alone) for the perturbation
    term; `forward` (`decode` + `shadow_gain` + `compose`) is the tests'
    reference.
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
        self._posing = Posing(template, skeleton, (g, g), dt)

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
        """Latent distribution from an unposed-geometry position map."""
        if self.encoder is None:
            raise RuntimeError("model was built without a latent encoder")
        return self.encoder(pos_map)

    def _latent(self, z) -> dc.Tensor:
        dz, dt = self.config.d_z, self.config.np_dtype
        if z is None:
            return dc.Tensor(np.zeros(dz, dtype=dt))
        if not self.config.use_latent:
            raise ValueError("z supplied to a latent-free model")
        if isinstance(z, dc.Tensor):
            if z.data.shape != (dz,):
                raise ValueError(f"z must have length {dz}, got {z.data.shape}")
            return z
        z = np.asarray(z)
        if z.shape != (dz,):
            raise ValueError(f"z must have length {dz}, got {z.shape}")
        if not np.isfinite(z).all():
            raise ValueError("z has non-finite entries")
        return dc.Tensor(z.astype(dt))

    # ------------------------------------------------------------ forward

    def _trunk(self, signal: DrivingSignal, z):
        """(displacement map, decoder trunk) for a driving signal."""
        dt = self.config.np_dtype
        if signal.theta.shape != (self.masks.n_pose,):
            raise ValueError(f"theta must have {self.masks.n_pose} scalars, "
                             f"got {signal.theta.shape}")
        if signal.face.shape != (self.masks.n_face,):
            raise ValueError(f"face must have {self.masks.n_face} scalars, "
                             f"got {signal.face.shape}")
        zt = self._latent(z)
        # pose and face scalars go through their own localized projectors,
        # cast to the model dtype so embeddings do not silently upcast
        e_pose = self.proj_pose(signal.theta.astype(dt))
        e_face = self.proj_face(signal.face.astype(dt))
        return self.decoder(zt, e_pose, e_face)

    def decode(self, signal: DrivingSignal, z=None):
        """(displacement map, texture) for a driving signal; z defaults to
        the zero vector (maximum-likelihood imputation)."""
        disp, trunk = self._trunk(signal, z)
        return disp, self.decoder.texture(trunk, [signal.view])[0]

    def displacement(self, signal: DrivingSignal, z=None) -> dc.Tensor:
        """Displacement map [3,G,G]; no texture branch, posing or FK."""
        return self._trunk(signal, z)[0]

    def geometry(self, signal: DrivingSignal, z=None):
        """(posed vertices [V,3], decoder trunk); the view is not read."""
        disp, trunk = self._trunk(signal, z)
        return self._posing(signal.theta, disp), trunk

    def appearance(self, trunk: dc.Tensor, views, gain: dc.Tensor) -> list[dc.Tensor]:
        """Final textures, one per view; the view-independent upsamples run once."""
        return apply_gain(self.decoder.texture(trunk, views), gain)

    def shadow_gain(self, ao=None) -> dc.Tensor:
        """Gain [1,R,R] from an AO map; exactly 1 without a shadow branch."""
        if self.shadow is None:
            if ao is not None:
                raise ValueError("AO map supplied to a model without a "
                                 "shadow branch")
            r = self.config.shadow_res
            return dc.Tensor(np.ones((1, r, r), dtype=self.config.np_dtype))
        if ao is None:
            raise ValueError("shadow branch needs an ambient-occlusion map")
        return self.shadow(ao)

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
