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
    reference. `encode`, `geometry`, `displacement` and `shadow_gain`
    take one frame or a batch (training's minibatch, each block run once
    over it); `appearance` takes one frame.
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
        """Latent distribution from an unposed-geometry position map
        [3,H,W], or one row per frame from a batch of them [B,3,H,W]."""
        if self.encoder is None:
            raise RuntimeError("model was built without a latent encoder")
        return self.encoder(pos_map)

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
    # `signal` is one DrivingSignal or a sequence of them (a batch), and z
    # then [d_z] or [B,d_z]; each block runs once over the batch

    def _scalars(self, signal):
        """(theta [P], face [F]) of a driving signal, or of a batch of them
        stacked, ([B,P], [B,F]), checked against the masks."""
        single = isinstance(signal, DrivingSignal)
        frames = [signal] if single else list(signal)
        if not frames:
            raise ValueError("no driving signals given")
        theta = np.stack([s.theta for s in frames])
        face = np.stack([s.face for s in frames])
        if theta.shape[1:] != (self.masks.n_pose,):
            raise ValueError(f"theta must have {self.masks.n_pose} scalars, "
                             f"got {theta.shape[1:]}")
        if face.shape[1:] != (self.masks.n_face,):
            raise ValueError(f"face must have {self.masks.n_face} scalars, "
                             f"got {face.shape[1:]}")
        return (theta[0], face[0]) if single else (theta, face)

    def _trunk(self, theta, face, z):
        """(displacement map, decoder trunk) for checked `_scalars`."""
        dt = self.config.np_dtype
        zt = self._latent(z, theta.shape[:-1])
        # pose and face scalars go through their own localized projectors,
        # cast to the model dtype so embeddings do not silently upcast
        e_pose = self.proj_pose(theta.astype(dt))
        e_face = self.proj_face(face.astype(dt))
        return self.decoder(zt, e_pose, e_face)

    def decode(self, signal: DrivingSignal, z=None):
        """(displacement map, texture) for a driving signal; z defaults to
        the zero vector (maximum-likelihood imputation)."""
        disp, trunk = self._trunk(*self._scalars(signal), z)
        return disp, self.decoder.texture(trunk, [signal.view])[0]

    def displacement(self, signal, z=None) -> dc.Tensor:
        """Displacement map [3,G,G] ([B,3,G,G] for a batch); no texture
        branch, posing or FK."""
        return self._trunk(*self._scalars(signal), z)[0]

    def geometry(self, signal, z=None):
        """(posed vertices [V,3], decoder trunk [1,wg,G,G]), or for a batch
        ([B,V,3], [B,wg,G,G]); the view is not read."""
        theta, face = self._scalars(signal)
        disp, trunk = self._trunk(theta, face, z)
        return self._posing(theta, disp), trunk

    def appearance(self, trunk: dc.Tensor, views, gain: dc.Tensor) -> list[dc.Tensor]:
        """Final textures of one frame, one per view, from its [1,wg,G,G]
        trunk and [1,R,R] gain; the view-independent upsamples run once."""
        return apply_gain(self.decoder.texture(trunk, views), gain)

    def shadow_gain(self, ao=None) -> dc.Tensor:
        """Gain [1,R,R] from an AO map, or [B,1,R,R] from a batch of them;
        exactly 1 without a shadow branch (then [1,R,R], for any frame)."""
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
