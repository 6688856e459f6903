"""Two-phase training loop.

Both phases pose the whole minibatch at once with `AvatarModel.geometry`:
the encoder, the localized projectors, the decoder trunk, posing and
(in phase 2) the shadow net each run once per step over [B, ...]
arrays. `_step` builds the step's whole objective as one graph. Phase 1
(mesh warmup) adds L_G against the registered meshes; it reads no
texture branch, shadow net or AO map, and never rasterizes. Phase 2 adds
each frame's image objective, rasterizing its `appearance` under its
`shadow_gain`: the texture branch, the rasterizer and the image loss run
per frame on that frame's slice of the trunk, vertices and gain, as they
measured slower over a batch. Both phases then add the Laplacian term,
and phase 2 the latent regularizers (KL, adversarial independence, and
perturbation consistency, which reads the prior samples' displacement
maps at the joints' rigid anchors and nothing else, one decoder call for
the batch). The adversary is a separate statistics net with its own
optimizer; its loss, `mine_loss` on `z.detach()`, joins the walked root,
so one `dc.backward` per step fills both nets' gradients. The model
steps first, then the critic; phase 1 never steps the critic.

A parameter's gradient sums the batch inside one product (or one
reduction), so a step rounds otherwise than B single-frame passes
would; replays, resumes and BLAS thread counts still give the same
bytes.

Every random draw comes from a stream keyed by (seed, purpose,
iteration), so a resumed run consumes exactly the numbers the
uninterrupted run would have and checkpoints are bit-reproducible.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import diffcore as dc
from .. import keyvalue
from ..avatar import AvatarModel, reparameterize
from ..disentangle import (StatisticsNet, adversarial_dis_loss,
                           joint_anchor_uvs, kl_loss, mine_loss,
                           perturbation_loss)
from ..renderer import (LAM_GEOM, LAM_LAP, add_term, l2_sum,
                        laplacian_loss, losses, rasterize)
from ..rng import stream
from ..synthdata import raster_config
from .config import TrainConfig, config_text, parse_config
from .data import TrainData

__all__ = ["TrainingDiverged", "TrainResult", "train"]

# resumable-run keys that may legitimately differ between sessions
_RESUME_FREE = ("train.iters", "train.checkpoint_every", "train.out")


class TrainingDiverged(RuntimeError):
    """Loss or a parameter left the finite range; the run aborted on its
    last checkpoint."""


@dataclass
class TrainResult:
    model: AvatarModel
    history: list          # one dict per executed iteration


def train(config: TrainConfig, resume: bool = False, echo=None) -> TrainResult:
    """Run (or continue) one training job into config.out.

    resume=True picks up from out/trainer.dsaa1 when present and starts
    fresh otherwise; resume=False insists on a clean directory. echo, if
    given, receives one already-formatted line per iteration.
    """
    mw, lw = config.model, config.weights
    out = Path(config.out)
    if not config.dataset or not config.out:
        raise ValueError("config needs dataset and out paths")
    # a refused dataset, model or batch leaves no run directory behind
    data = TrainData(config.dataset, geo_res=mw.geo_res, ao_res=mw.shadow_res)
    data.check_model(mw)
    train_ids = data.train_ids()
    if len(train_ids) < config.batch:
        raise ValueError(f"dataset provides {len(train_ids)} training "
                         f"frames; batch size {config.batch} needs that many")
    out.mkdir(parents=True, exist_ok=True)

    state_path = out / "trainer.dsaa1"
    if state_path.exists() and not resume:
        raise ValueError(f"{out} already holds a run; resume it or point "
                         "--out at a fresh directory")
    if state_path.exists():
        _check_resumable(out / "config.txt", config)
    keyvalue.write_atomic(out / "config.txt", config_text(config))
    say = echo if echo is not None else (lambda line: None)
    if mw.use_shadow:
        say(f"baking occlusion maps for {len(train_ids)} frames")
        data.ensure_ao(train_ids)

    model = AvatarModel(data.template, data.skeleton, mw, seed=config.seed)
    # one optimizer per parameter group, in checkpoint order
    opts = {"model": dc.Adam(model.store, lr=config.lr)}
    critic = None
    if mw.use_latent and lw.lam_dis > 0:
        critic_store = dc.ParamStore()
        n_signal = model.masks.n_pose + model.masks.n_face
        critic = StatisticsNet(critic_store, "critic", n_signal, mw.d_z,
                               rng=stream(config.seed, "critic-init"),
                               dtype=mw.np_dtype)
        opts["critic"] = dc.Adam(critic_store, lr=config.lr)
    anchors = (joint_anchor_uvs(data.template, data.skeleton)
               if lw.lam_pc > 0 else None)
    raster_cfg = raster_config(data.spec)

    start = 0
    if state_path.exists():
        start = _load_state(state_path, opts)
        say(f"resuming at iteration {start}")
    if start == 0:
        _save_state(out, model, opts, 0)
    _trim_log(out / "train.log", start)

    history = []
    log = open(out / "train.log", "a")
    # a step's graphs hold no reference cycle, so the cyclic collector only
    # costs time in the loop: left on, its full pass (~10 ms) lands in
    # whichever step the allocation count triggers. It runs once, after.
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for i in range(start, config.iters):
            try:
                rec = _step(config, data, model, opts, critic, anchors,
                            raster_cfg, train_ids, i)
            except (ValueError, FloatingPointError, OverflowError) as e:
                # exploded parameters usually trip a shape-independent
                # validation check before the loss itself reads non-finite;
                # with every parameter finite, a ValueError is a config or
                # shape error and propagates as one
                bad = _nonfinite_params(opts)
                if isinstance(e, ValueError) and not bad:
                    raise
                raise _diverged(out, {"iter": i + 1, "error": repr(e)}, bad,
                                f"training failed at iteration {i + 1}: {e}") from e
            history.append(rec)
            line = _format(rec, config.iters)
            log.write(line + "\n")
            say(line)
            save = (i + 1) % config.checkpoint_every == 0 or i + 1 == config.iters
            bad = [k for k, v in rec.items()
                   if isinstance(v, float) and not np.isfinite(v)]
            if save:
                # the loss is read before opt.step(), so only the
                # parameters show whether this step's update diverged
                bad += _nonfinite_params(opts)
            if bad:
                log.flush()
                raise _diverged(out, rec, bad, f"non-finite {', '.join(bad)} "
                                f"at iteration {rec['iter']}")
            if save:
                log.flush()
                _save_state(out, model, opts, i + 1)
    finally:
        log.close()
        data.flush_ao()
        gc.collect()
        if gc_was_on:
            gc.enable()
    return TrainResult(model=model, history=history)


# ------------------------------------------------------------------ one step

def _step(cfg, data, model, opts, critic, anchors, raster_cfg, train_ids, i):
    mw, lw = cfg.model, cfg.weights
    phase = 1 if i < cfg.phase1 else 2
    picks = stream(cfg.seed, "batch", i).choice(len(train_ids),
                                                size=cfg.batch, replace=False)
    batch_ids = [train_ids[int(p)] for p in picks]
    cams = stream(cfg.seed, "cam", i).integers(0, len(data.cameras),
                                               size=cfg.batch)
    eps = (stream(cfg.seed, "eps", i).standard_normal((cfg.batch, mw.d_z))
           if mw.use_latent else None)

    # the geometry half runs once over the batch: encoder, projectors,
    # decoder trunk and posing, [B, ...] each
    signals = [data.signal(fid, int(c)) for fid, c in zip(batch_ids, cams)]
    z = dist = None
    if mw.use_latent:
        dist = model.encoder(np.stack([data.pos_map(fid) for fid in batch_ids]))
        z = reparameterize(dist, eps)
    posed, trunk = model.geometry(signals, z)
    total, parts = None, {}
    if phase == 1:
        gt = np.stack([data.frame(fid).verts for fid in batch_ids])
        total = add_term(None, parts, "geom",
                         l2_sum(posed, gt.astype(posed.dtype)), LAM_GEOM)
    else:
        gain = (model.shadow(np.stack([data.ao(fid) for fid in batch_ids]))
                if mw.use_shadow else None)
        # the texture branch, the rasterizer and the image loss run per
        # frame, on that frame's slice of the trunk, vertices and gain
        for b, fid in enumerate(batch_ids):
            fr, c = data.frame(fid), int(cams[b])
            gain_b = model.shadow_gain() if gain is None else dc.getitem(gain, b)
            final = model.appearance(dc.getitem(trunk, slice(b, b + 1)),
                                     [signals[b].view], gain_b)[0]
            render = rasterize(dc.getitem(posed, b), data.template.faces,
                               data.template.uvs, final, data.cameras[c],
                               raster_cfg)
            loss_b, parts_b = losses(render, fr.images[c], fr.masks[c])
            for k, v in parts_b.items():
                parts[k] = parts.get(k, 0.0) + v
            total = loss_b if total is None else dc.add(total, loss_b)
    laps = np.stack([data.laplacian(fid, posed.dtype) for fid in batch_ids])
    total = add_term(total, parts, "lap",
                     laplacian_loss(data.template, posed, laps), LAM_LAP)

    closs = None
    if phase == 2 and mw.use_latent:
        C = np.stack([data.scalars(fid) for fid in batch_ids])
        if lw.lam_kl > 0:
            total = add_term(total, parts, "kl", kl_loss(dist), lw.lam_kl)
        if lw.lam_dis > 0:
            dis = adversarial_dis_loss(critic, C, z)
            total = add_term(total, parts, "dis", dis, lw.lam_dis)
            # the critic's own loss reads z as a constant, so it reaches
            # the critic alone, as the dis term reaches the model alone
            closs = mine_loss(critic, C, z.detach())
            parts["critic"] = float(closs.data)
        if lw.lam_pc > 0:
            zp = stream(cfg.seed, "prior", i).standard_normal(
                (cfg.batch, mw.d_z))
            pc = perturbation_loss(model.displacement(signals, zp), anchors)
            total = add_term(total, parts, "pc", pc, lw.lam_pc)

    # one walk fills the model's and the critic's gradients; only a step
    # that built the critic's loss steps the critic, as any step would
    # advance its Adam count
    dc.backward(total if closs is None else dc.add(total, closs))
    opts["model"].step()
    if closs is not None:
        opts["critic"].step()

    rec = {"iter": i + 1, "phase": phase, "total": float(total.data)}
    rec.update(sorted(parts.items()))
    return rec


def _format(rec, iters):
    bits = [f"iter {rec['iter']}/{iters}", f"phase {rec['phase']}",
            f"total {rec['total']:.6f}"]
    bits += [f"{k} {v:.6f}" for k, v in rec.items()
             if k not in ("iter", "phase", "total")]
    return " ".join(bits)


def _trim_log(path, last):
    """Drop the log lines after iteration `last`, which a resume reruns."""
    if path.exists():
        keyvalue.write_atomic(path, "".join(
            ln for ln in path.read_text().splitlines(keepends=True)
            if ln.endswith("\n") and int(ln.split()[1].split("/")[0]) <= last))


def _nonfinite_params(opts):
    """Names of the parameters holding a NaN or an infinity."""
    return [name for opt in opts.values()
            for name, t in opt.params.items() if not np.isfinite(t.data).all()]


def _diverged(out, rec, bad, what):
    """Write rec and the non-finite names bad to diverged.txt; return the
    TrainingDiverged that says `what` went wrong and where to look."""
    head = f"non-finite components: {', '.join(bad)}\n" if bad else ""
    keyvalue.write_atomic(out / "diverged.txt", head + keyvalue.dump(
        (k, repr(v)) for k, v in rec.items()))
    return TrainingDiverged(f"{what}; last checkpoint kept, diagnostics in "
                            f"{out / 'diverged.txt'}")


# ------------------------------------------------------------- persistence
# trainer.dsaa1: "iter", then per group in `opts` order "<group>/" params
# and "<group>-adam/" moments; it and model.dsaa1 are each replaced whole,
# model.dsaa1 and its manifest first, so a replaced trainer.dsaa1 marks a
# complete checkpoint.

def _state_arrays(opts, it):
    arrays = {"iter": np.array([float(it)])}
    for group, opt in opts.items():
        arrays.update(opt.params.state_arrays(f"{group}/"))
        arrays.update(opt.state_arrays(f"{group}-adam/"))
    return arrays


def _save_state(out, model, opts, it):
    model.save(out / "model.dsaa1")
    dc.save_arrays(out / "trainer.dsaa1", _state_arrays(opts, it))


def _load_state(path, opts) -> int:
    arrays = dc.load_arrays(path)
    expected = _state_arrays(opts, 0)
    extra = sorted(set(arrays) - set(expected))
    missing = sorted(set(expected) - set(arrays))
    if extra or missing:
        raise ValueError(f"trainer state does not match the configured run "
                         f"(missing {missing[:3]}, unexpected {extra[:3]})")
    for group, opt in opts.items():
        opt.params.load_state(arrays, f"{group}/")
        opt.load_state(arrays, f"{group}-adam/")
    return int(arrays["iter"][0])


def _check_resumable(config_path, cfg: TrainConfig):
    if not config_path.exists():
        raise ValueError("run directory has state but no config.txt")
    old = parse_config(config_path.read_text())
    old_lines = keyvalue.read(config_text(old))
    new_lines = keyvalue.read(config_text(cfg))
    clash = [k for k in new_lines
             if k not in _RESUME_FREE and old_lines.get(k) != new_lines[k]]
    if clash:
        raise ValueError(f"cannot resume: config keys changed: "
                         f"{', '.join(sorted(clash))}")
