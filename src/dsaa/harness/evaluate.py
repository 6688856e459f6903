"""Driving evaluation, the ablation report, and influence heatmaps.

The driving error is the mean per-pixel L1 over the foreground union
(ground-truth or predicted silhouette), scaled by 255; `drive` scores it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .. import diffcore as dc
from .. import keyvalue
from ..avatar import AvatarConfig, AvatarModel, parse_manifest
from ..conditioning import build_masks, influence_heatmap
from ..disentangle import hsic_test
from ..disentangle.stats import _HSIC_MIN_ROWS
from ..imgio import write_pgm, write_ppm
from ..renderer import losses, rasterize
from ..rng import stream
from ..synthdata import raster_config
from .config import ABLATIONS
from .data import TrainData

__all__ = ["load_model", "model_path", "union_l1", "render_frame", "drive",
           "build_report", "write_heatmaps", "heatmap_locality", "open_run",
           "VARIANT_LABELS"]

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


def _run_config(checkpoint) -> tuple[Path, AvatarConfig]:
    path = model_path(checkpoint)
    return path, parse_manifest(Path(f"{path}.manifest").read_text())


def open_run(checkpoint, dataset) -> tuple[TrainData, AvatarModel]:
    """The dataset at the checkpoint's resolutions (its manifest's geo_res
    and shadow_res) and the model, if it reads the dataset's face scalars."""
    path, config = _run_config(checkpoint)
    data = TrainData(dataset, geo_res=config.geo_res, ao_res=config.shadow_res)
    data.check_model(config)
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
    geometry, shadow gain and textures decoded once at latent z (one
    `appearance` call for all views), then each camera's rasterized."""
    cfg = raster_config(data.spec)
    posed, trunk = model.geometry(data.signal(frame_id, 0), z)
    gain = model.shadow_gain(data.ao(frame_id) if model.config.use_shadow
                             else None)
    views = [data.signal(frame_id, k).view for k in range(len(data.cameras))]
    for final, camera in zip(model.appearance(trunk, views, gain), data.cameras):
        yield rasterize(posed, data.template.faces, data.template.uvs, final,
                        camera, cfg)


def _stack(renders):
    """(images [n_cam,3,H,W], masks [n_cam,H,W]) of a list of renders."""
    return (np.stack([rt.image.data for rt in renders]),
            np.stack([rt.mask.data for rt in renders]))


def render_frame(model: AvatarModel, data: TrainData, frame_id: str, z=None):
    """All-camera renders for one frame at a fixed latent.

    Returns (images [n_cam,3,H,W], masks [n_cam,H,W]) as plain arrays; no
    graph is kept.
    """
    with dc.no_grad():
        return _stack(list(_camera_renders(model, data, frame_id, z)))


def _frame_errors(images, masks, fr) -> list[float]:
    return [union_l1(images[k], masks[k], fr.images[k], fr.masks[k])
            for k in range(images.shape[0])]


# -------------------------------------------------------------------- drive

def _fit_latent(model, data, frame_id, steps, lr):
    """Per-frame reconstruction: gradient descent on z against the ground
    truth images (the image objective `losses`) over all cameras, keeping
    the best iterate seen.

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
    best = None
    params = model.store.tensors()
    live = [t.requires_grad for t in params]
    for t in params:
        t.requires_grad = False
    try:
        for it in range(steps + 1):
            total, renders = None, []
            for k, rt in enumerate(_camera_renders(model, data, frame_id, zt)):
                part, _ = losses(rt, fr.images[k], fr.masks[k])
                total = part if total is None else dc.add(total, part)
                renders.append(rt)
            images, masks = _stack(renders)
            score = float(np.mean(_frame_errors(images, masks, fr)))
            if best is None or score < best[0]:
                best = (score, zt.data.copy(), images, masks)
            if it < steps:
                dc.backward(total)
                opt.step()
    finally:
        for t, flag in zip(params, live):
            t.requires_grad = flag
    return best[1:]         # z, images, masks


def drive(model: AvatarModel, data: TrainData, frame_ids, mode: str = "zero",
          out_dir=None, seed: int = 0, steps: int = 40, lr: float = 0.1) -> dict:
    """Render the requested frames under one imputation mode.

    zero: z = 0 (maximum-likelihood driving). sample: z ~ N(0, I) per
    frame under `seed`. fit: per-frame optimization of z against the
    ground truth. Returns {frame_id: {"z", "cams", "err"}}. With out_dir,
    each frame's renders are written as it is scored, and drive.kv last
    and whole, after removing an earlier one: a stopped drive leaves none.
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
    # refuse bad frame ids and a bad out_dir before any bake or render
    frames = [data.frame(fid) for fid in frame_ids]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "drive.kv").unlink(missing_ok=True)
    if model.config.use_shadow:
        data.ensure_ao(frame_ids)

    results, items = {}, [("mode", mode), ("seed", seed)]
    for fid, fr in zip(frame_ids, frames):
        if mode == "fit":
            z, images, masks = _fit_latent(model, data, fid, steps, lr)
        else:
            z = (stream(seed, "drive", fid).standard_normal(model.config.d_z)
                 if mode == "sample" else None)
            images, masks = render_frame(model, data, fid, z)
        errs = _frame_errors(images, masks, fr)
        results[fid] = {"z": z, "cams": errs, "err": float(np.mean(errs))}
        if out_dir is not None:
            for k, image in enumerate(images):
                write_ppm(out / f"{fid}_cam{k}.ppm", image)
                items.append((f"frame.{fid}.cam{k}", repr(errs[k])))
            items.append((f"frame.{fid}", repr(results[fid]["err"])))

    if out_dir is not None:
        mean = float(np.mean([r["err"] for r in results.values()]))
        keyvalue.write_atomic(out / "drive.kv",
                              keyvalue.dump(items + [("mean", repr(mean))]))
    return results


# ------------------------------------------------------------------- report

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
    """(posterior means [N,d_z], hidden factors u [N]) of the frames."""
    with dc.no_grad():
        mu = [model.encode(data.pos_map(fid)).mu.data.copy() for fid in ids]
    return np.stack(mu), np.array([data.frame(f).u for f in ids])


def heatmap_locality(model: AvatarModel, seed: int = 0) -> dict:
    """Fraction of influence-heatmap mass inside each pose scalar's true
    mask, from 8 perturbations per scalar at the zero signal.

    Masks are rebuilt from the rig on the model's atlas (not taken from
    the model's masks), so the no-locality ablation is scored against
    the same reference. Scalars whose heatmap is identically zero are
    omitted.
    """
    ref = build_masks(model.template, model.skeleton, model.atlas,
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
    if not indices:
        raise ValueError("no signal indices requested")
    if len(set(indices)) != len(indices):
        raise ValueError(f"repeated signal indices in {indices}")
    for k in indices:
        if not 0 <= k < n:
            raise ValueError(f"signal index {k} out of range [0, {n})")
    heats = [influence_heatmap(lambda v: _embed(model, v), signal, k,
                               n_perturb, seed=seed) for k in indices]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, heat in zip(indices, heats):
        name = model.masks.names[k].replace(":", "_")
        path = out / f"heatmap_{k:02d}_{name}.pgm"
        write_pgm(path, heat)
        paths.append(path)
    return paths


def build_report(runs: dict, data: TrainData, out_dir, seed: int = 0,
                 eval_frames: int = 200) -> str:
    """Error table plus disentanglement diagnostics across the six
    canonical variants; writes report.txt and report.kv, each whole, into
    out_dir, which is made after every run is checked and before any is
    scored.

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

    # refuse a missing or mismatched run before any run is scored
    for variant in ABLATIONS:
        data.check_model(_run_config(runs[variant])[1])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows, kv = [], [("metric", _METRIC_TAG),
                    ("frames.train", len(train_ids)),
                    ("frames.test", len(test_ids))]
    diag = []
    # the HSIC test needs enough test rows for its permutations to be
    # able to reject, and the probe two rows per split to fit and to
    # have a variance
    score_hsic = len(test_ids) >= _HSIC_MIN_ROWS
    score_probe = min(len(train_ids), len(test_ids)) >= 2
    for variant, label in VARIANT_LABELS.items():
        run_data, model = open_run(runs[variant], data.root)
        tr_m, te_m = [float(np.mean([r["err"] for r in
                                     drive(model, run_data, ids).values()]))
                      for ids in (train_ids, test_ids)]
        rows.append((label, tr_m, te_m))
        kv.append((f"error.{variant}.train", repr(tr_m)))
        kv.append((f"error.{variant}.test", repr(te_m)))

        loc = heatmap_locality(model, seed=seed)
        loc_m = float(np.mean(list(loc.values()))) if loc else float("nan")
        kv.append((f"locality.{variant}", repr(loc_m)))
        extras = [f"locality {loc_m:.3f}"]
        if model.config.use_latent and (score_hsic or score_probe):
            mu_te, u_te = _encodings(model, run_data, test_ids)
            if score_hsic:
                c_te = np.stack([run_data.scalars(f) for f in test_ids])
                stat, p = hsic_test(mu_te, c_te, seed=seed)
                kv.append((f"hsic.{variant}", repr(stat)))
                kv.append((f"hsic_p.{variant}", repr(p)))
                extras.append(f"HSIC(z;signal) {stat:.4g} (p {p:.3f})")
            if score_probe:
                mu_tr, u_tr = _encodings(model, run_data, train_ids)
                r2 = _probe_r2(mu_tr, u_tr, mu_te, u_te)
                kv.append((f"probe_r2.{variant}", repr(r2)))
                extras.append(f"probe R2 {r2:.3f}")
        diag.append(f"{label}: " + ", ".join(extras))

    width = max(len(label) for label, _, _ in rows)
    lines = ["driving error (mean per-pixel L1 x 255, foreground union)",
             f"frames: {len(train_ids)} train / {len(test_ids)} test",
             "",
             f"{'variant'.ljust(width)}    train     test"]
    for label, tr_m, te_m in rows:
        lines.append(f"{label.ljust(width)} {tr_m:8.3f} {te_m:8.3f}")
    lines += ["", "diagnostics:"] + diag + [
        "",
        "locality checks the architecture: it is 1.0 by construction for "
        "every masked variant",
        "HSIC(z;signal) tests z against the signal on the test frames: a "
        "small p says z depends on it",
        "probe R2 checks that z encodes u (held-out ridge fit)"]
    omitted = [name for name, scored in (("HSIC(z;signal)", score_hsic),
                                         ("probe R2", score_probe)) if not scored]
    if omitted:
        lines.append(f"{' and '.join(omitted)} omitted: HSIC needs at least "
                     f"{_HSIC_MIN_ROWS} test frames, the probe 2 train and 2 "
                     "test frames")
    text = "\n".join(lines) + "\n"
    keyvalue.write_atomic(out / "report.txt", text)
    keyvalue.write_atomic(out / "report.kv", keyvalue.dump(kv))
    return text
