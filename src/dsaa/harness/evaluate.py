"""Driving evaluation, the ablation report, and influence heatmaps.

The driving error is the mean per-pixel L1 over the foreground union
(ground-truth or predicted silhouette), scaled by 255.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .. import diffcore as dc
from .. import keyvalue
from ..avatar import AvatarModel, parse_manifest
from ..conditioning import build_masks, influence_heatmap
from ..disentangle import StatisticsNet, fit_statistics, mi_estimate
from ..imgio import write_pgm, write_ppm
from ..renderer import LossWeights, losses, rasterize
from ..rng import stream
from ..synthdata import raster_config
from .config import ABLATIONS
from .data import TrainData

__all__ = ["load_model", "model_path", "union_l1", "render_frame", "drive",
           "eval_errors", "build_report", "write_heatmaps", "heatmap_locality",
           "open_run", "VARIANT_LABELS"]

VARIANT_LABELS = dict(zip(ABLATIONS, (
    "OURS", "pose+face", "pose+face+latent", "OURS (no disent.)",
    "OURS (no spat. local.)", "OURS (no shadow)")))

_METRIC_TAG = "union-l1-v1"


def model_path(checkpoint) -> Path:
    """The model container of a run directory (or a direct container
    path); raises if it does not exist."""
    path = Path(checkpoint)
    if path.is_dir():
        path = path / "model.dsaa1"
    if not path.exists():
        raise ValueError(f"no model checkpoint at {path}")
    return path


def load_model(checkpoint, data: TrainData) -> AvatarModel:
    """Model from a run directory (or a direct container path), rigged
    with the dataset's template and skeleton."""
    return AvatarModel.load(model_path(checkpoint), data.template, data.skeleton)


def open_run(checkpoint, dataset) -> tuple[TrainData, AvatarModel]:
    """The dataset at the resolutions the checkpoint was trained with
    (its manifest's geo_res and shadow_res), and the model."""
    path = model_path(checkpoint)
    config = parse_manifest(Path(f"{path}.manifest").read_text())
    data = TrainData(dataset, geo_res=config.geo_res, ao_res=config.shadow_res)
    return data, load_model(path, data)


def union_l1(pred_img, pred_mask, gt_img, gt_mask) -> float:
    """Mean per-pixel L1 x 255 over the union of the two silhouettes."""
    union = (np.asarray(gt_mask) >= 0.5) | (np.asarray(pred_mask) >= 0.5)
    if not union.any():
        return 0.0
    diff = np.abs(np.asarray(pred_img, dtype=np.float64)
                  - np.asarray(gt_img, dtype=np.float64))
    return float(diff[:, union].mean() * 255.0)


def _camera_renders(model: AvatarModel, data: TrainData, frame_id: str, z):
    """Yield one RenderTarget per camera, in camera order: the frame's
    geometry and shadow gain decoded once at latent z, the texture for
    that camera's view, then rasterized."""
    cfg = raster_config(data.spec)
    posed, trunk = model.geometry(data.signal(frame_id, 0), z)
    gain = model.shadow_gain(data.ao(frame_id) if model.config.use_shadow
                             else None)
    for k, camera in enumerate(data.cameras):
        final = model.appearance(trunk, data.signal(frame_id, k).view, gain)
        yield rasterize(posed, data.template.faces, data.template.uvs, final,
                        camera, cfg)


def render_frame(model: AvatarModel, data: TrainData, frame_id: str, z=None):
    """All-camera renders for one frame at a fixed latent.

    Returns (images [n_cam,3,H,W], masks [n_cam,H,W]) as plain arrays; no
    graph is kept.
    """
    images, masks = [], []
    with dc.no_grad():
        for rt in _camera_renders(model, data, frame_id, z):
            images.append(rt.image.data.copy())
            masks.append(rt.mask.data.copy())
    return np.stack(images), np.stack(masks)


def _frame_errors(images, masks, fr) -> list[float]:
    return [union_l1(images[k], masks[k], fr.images[k], fr.masks[k])
            for k in range(images.shape[0])]


# -------------------------------------------------------------------- drive

def _fit_latent(model, data, frame_id, steps, lr):
    """Per-frame reconstruction: gradient descent on z against the ground
    truth images (default loss weights) over all cameras, keeping the best
    iterate seen.

    Initialization at z = 0 makes the result at least as good as zero
    driving under the reported metric. The model's parameters stay off
    the tape meanwhile, so backward computes no gradient for them and
    leaves no .grad on them.
    """
    fr = data.frame(frame_id)
    zstore = dc.ParamStore()
    zt = zstore.add("z", np.zeros(model.config.d_z,
                                  dtype=model.config.np_dtype))
    opt = dc.Adam(zstore, lr=lr)
    weights = LossWeights()
    best = None
    params = model.store.tensors()
    live = [t.requires_grad for t in params]
    for t in params:
        t.requires_grad = False
    try:
        for it in range(steps + 1):
            zstore.zero_grad()
            total, images, masks = None, [], []
            for k, rt in enumerate(_camera_renders(model, data, frame_id, zt)):
                part, _ = losses(rt, fr.images[k], fr.masks[k], weights)
                total = part if total is None else dc.add(total, part)
                images.append(rt.image.data.copy())
                masks.append(rt.mask.data.copy())
            images, masks = np.stack(images), np.stack(masks)
            score = float(np.mean(_frame_errors(images, masks, fr)))
            if best is None or score < best[0]:
                best = (score, zt.data.copy(), images, masks)
            if it < steps:
                dc.backward(total)
                opt.step()
    finally:
        for t, flag in zip(params, live):
            t.requires_grad = flag
    _, z, images, masks = best
    return z, images, masks


def drive(model: AvatarModel, data: TrainData, frame_ids, mode: str = "zero",
          out_dir=None, seed: int = 0, steps: int = 40, lr: float = 0.1) -> dict:
    """Render the requested frames under one imputation mode.

    zero: z = 0 (maximum-likelihood driving). sample: z ~ N(0, I) per
    frame under `seed`. fit: per-frame optimization of z against the
    ground truth. Returns {frame_id: {"z", "cams", "err"}} and, when
    out_dir is given, writes the renders plus a drive.kv error table.
    """
    if mode not in ("zero", "sample", "fit"):
        raise ValueError(f"unknown imputation mode {mode!r}")
    if mode != "zero" and not model.config.use_latent:
        raise ValueError(f"{mode} imputation needs a latent-capable model")
    if mode == "fit" and (steps < 0 or not (math.isfinite(lr) and lr > 0)):
        raise ValueError(f"fit mode needs steps >= 0 and a finite lr > 0, got "
                         f"steps={steps}, lr={lr}")
    frame_ids = list(frame_ids)
    if not frame_ids:
        raise ValueError("no frames requested")
    if len(set(frame_ids)) != len(frame_ids):
        raise ValueError(f"repeated frame ids in {frame_ids}")
    if model.config.use_shadow:
        data.ensure_ao(frame_ids)

    results = {}
    for fid in frame_ids:
        fr = data.frame(fid)
        if mode == "fit":
            z, images, masks = _fit_latent(model, data, fid, steps, lr)
        else:
            z = (stream(seed, "drive", fid).standard_normal(model.config.d_z)
                 if mode == "sample" else None)
            images, masks = render_frame(model, data, fid, z)
        errs = _frame_errors(images, masks, fr)
        results[fid] = {"z": z, "cams": errs, "err": float(np.mean(errs)),
                        "images": images, "masks": masks}

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        items = [("mode", mode), ("seed", seed)]
        for fid in frame_ids:
            r = results[fid]
            for k in range(r["images"].shape[0]):
                write_ppm(out / f"{fid}_cam{k}.ppm", r["images"][k])
                items.append((f"frame.{fid}.cam{k}", repr(r["cams"][k])))
            items.append((f"frame.{fid}", repr(r["err"])))
        mean = float(np.mean([results[f]["err"] for f in frame_ids]))
        items.append(("mean", repr(mean)))
        (out / "drive.kv").write_text(keyvalue.dump(items))
    return results


# ------------------------------------------------------------------- report

def eval_errors(model: AvatarModel, data: TrainData, frame_ids) -> dict:
    """Zero-driving error per frame of the list frame_ids."""
    if model.config.use_shadow:
        data.ensure_ao(frame_ids)
    return {fid: float(np.mean(_frame_errors(*render_frame(model, data, fid),
                                             data.frame(fid))))
            for fid in frame_ids}


def _subsample(ids, limit, rng) -> list:
    if len(ids) <= limit:
        return list(ids)
    picks = rng.choice(len(ids), size=limit, replace=False)
    return [ids[int(p)] for p in sorted(picks)]


def _probe_r2(mu_train, u_train, mu_test, u_test) -> float:
    """Ridge regression latent mean -> hidden factor, scored held-out."""
    X, y = np.asarray(mu_train, np.float64), np.asarray(u_train, np.float64)
    Xc, yc = X - X.mean(0), y - y.mean()
    lam = 1e-4 * np.trace(Xc.T @ Xc) / max(len(X), 1)
    w = np.linalg.solve(Xc.T @ Xc + lam * np.eye(X.shape[1]), Xc.T @ yc)
    pred = (np.asarray(mu_test, np.float64) - X.mean(0)) @ w + y.mean()
    resid = np.asarray(u_test, np.float64) - pred
    denom = np.sum((u_test - np.mean(u_test)) ** 2)
    if denom == 0.0:
        return 0.0
    return float(1.0 - np.sum(resid ** 2) / denom)


def _encodings(model, data, ids):
    mu = []
    with dc.no_grad():
        for fid in ids:
            mu.append(model.encode(data.pos_map(fid)).mu.data.copy())
    c = np.stack([data.scalars(f) for f in ids])
    u = np.array([data.frame(f).u for f in ids])
    return np.stack(mu), c, u


def latent_mi(mu, c, seed: int = 0) -> float:
    """MI(z; signal) lower bound from a statistics net freshly fit for
    400 steps over posterior means mu [N,d_z] and their signals c."""
    store = dc.ParamStore()
    stats = StatisticsNet(store, "mi", c.shape[1], mu.shape[1],
                          rng=stream(seed, "report-mi"))
    fit_statistics(store, stats, c, mu, steps=400,
                   batch=min(64, len(mu)), seed=seed)
    return mi_estimate(stats, c, mu)


def heatmap_locality(model: AvatarModel, data: TrainData,
                     seed: int = 0) -> dict:
    """Fraction of influence-heatmap mass inside each pose scalar's true
    mask, from 8 perturbations per scalar at the zero signal.

    Masks are rebuilt from the rig (not taken from the model), so the
    no-locality ablation is scored against the same reference. Scalars
    whose heatmap is identically zero are omitted.
    """
    g = model.config.geo_res
    ref = build_masks(data.template, data.skeleton, g, g,
                      tau=model.config.tau, n_face=model.config.n_face,
                      head_joint=model.config.head_joint)
    base = np.zeros(ref.data.shape[0], dtype=np.float64)
    out = {}
    for k in range(ref.n_pose):
        heat = influence_heatmap(lambda v: _embed(model, v), base, k, 8,
                                 seed=seed)
        total = heat.sum()
        if total > 0:
            out[k] = float((heat * ref.data[k]).sum() / total)
    return out


def _embed(model, scalars):
    n_pose = model.masks.n_pose
    dt = model.config.np_dtype
    scalars = np.asarray(scalars, dtype=np.float64)
    with dc.no_grad():
        ep = model.proj_pose(scalars[:n_pose].astype(dt))
        ef = model.proj_face(scalars[n_pose:].astype(dt))
    return np.concatenate([ep.data, ef.data], axis=0)


def write_heatmaps(model: AvatarModel, out_dir, indices, signal=None,
                   n_perturb: int = 16, seed: int = 0) -> list:
    """One normalized PGM per requested signal scalar; returns the paths."""
    n = model.masks.data.shape[0]
    if signal is None:
        signal = np.zeros(n, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != (n,):
        raise ValueError(f"signal must supply {n} scalars, got {signal.shape}")
    indices = [int(k) for k in indices]
    for k in indices:
        if not 0 <= k < n:
            raise ValueError(f"signal index {k} out of range [0, {n})")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in indices:
        heat = influence_heatmap(lambda v: _embed(model, v), signal, k,
                                 n_perturb, seed=seed)
        name = model.masks.names[k].replace(":", "_")
        path = out / f"heatmap_{k:02d}_{name}.pgm"
        write_pgm(path, heat)
        paths.append(path)
    return paths


def build_report(runs: dict, data: TrainData, out_dir, seed: int = 0,
                 eval_frames: int = 200) -> str:
    """Error table plus disentanglement diagnostics across the six
    canonical variants; writes report.txt and report.kv into out_dir.

    `data` supplies the frame lists; each run is scored on the dataset
    reopened at that run's own resolutions (open_run)."""
    if eval_frames < 1:
        raise ValueError(f"report frame cap must be >= 1, got {eval_frames}")
    missing = [v for v in ABLATIONS if v not in runs]
    unknown = sorted(set(runs) - set(ABLATIONS))
    if missing or unknown:
        raise ValueError(f"expected variants {', '.join(ABLATIONS)}; missing "
                         f"[{', '.join(missing)}], unknown [{', '.join(unknown)}]")

    test_ids = _subsample(data.ids(group="standard", split="test"),
                          eval_frames, stream(seed, "report", "test"))
    train_ids = _subsample(data.train_ids(), eval_frames,
                           stream(seed, "report", "train"))
    if not test_ids or not train_ids:
        raise ValueError("dataset provides no train/test frames to score")

    rows, kv = [], [("metric", _METRIC_TAG),
                    ("frames.train", len(train_ids)),
                    ("frames.test", len(test_ids))]
    diag = []
    # the MI critic trains on minibatches of two or more test rows, and
    # the probe needs two rows per split to fit and to have a variance
    score_latent = min(len(train_ids), len(test_ids)) >= 2
    for variant, label in VARIANT_LABELS.items():
        run_data, model = open_run(runs[variant], data.root)
        tr = eval_errors(model, run_data, train_ids)
        te = eval_errors(model, run_data, test_ids)
        tr_m = float(np.mean(list(tr.values())))
        te_m = float(np.mean(list(te.values())))
        rows.append((label, tr_m, te_m))
        kv.append((f"error.{variant}.train", repr(tr_m)))
        kv.append((f"error.{variant}.test", repr(te_m)))

        loc = heatmap_locality(model, run_data, seed=seed)
        loc_m = float(np.mean(list(loc.values()))) if loc else float("nan")
        kv.append((f"locality.{variant}", repr(loc_m)))
        extras = [f"locality {loc_m:.3f}"]
        if model.config.use_latent and score_latent:
            mu_tr, _, u_tr = _encodings(model, run_data, train_ids)
            mu_te, c_te, u_te = _encodings(model, run_data, test_ids)
            mi = latent_mi(mu_te, c_te, seed=seed)
            r2 = _probe_r2(mu_tr, u_tr, mu_te, u_te)
            kv.append((f"mi.{variant}", repr(mi)))
            kv.append((f"probe_r2.{variant}", repr(r2)))
            extras += [f"MI(z;signal) {mi:.3f} nats", f"probe R2 {r2:.3f}"]
        diag.append(f"{label}: " + ", ".join(extras))

    width = max(len(label) for label, _, _ in rows)
    lines = [f"driving error (mean per-pixel L1 x 255, foreground union)",
             f"frames: {len(train_ids)} train / {len(test_ids)} test",
             "",
             f"{'variant'.ljust(width)}    train     test"]
    for label, tr_m, te_m in rows:
        lines.append(f"{label.ljust(width)} {tr_m:8.3f} {te_m:8.3f}")
    lines += ["", "diagnostics:"] + diag
    if not score_latent:
        lines.append("MI(z;signal) and probe R2 omitted: they need at least "
                     "2 train and 2 test frames")
    text = "\n".join(lines) + "\n"

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(text)
    (out / "report.kv").write_text(keyvalue.dump(kv))
    return text
