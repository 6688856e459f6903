"""The benchmark workloads, built on the library API only.

Every workload reports every end-to-end metric, so every workload runs
every stage of the pipeline (generate -> AO bake -> train -> drive).
What differs is which stage it *times*: ``wall_s`` covers the
workload's own stage, the stages before it run in setup, and the stages
after it run in a short tail. Per-item metrics (dataset builds, AO maps,
steps, drive calls) are pooled from wherever their stage ran in the
process.

Each setup builds its own content from a seed derived from ``--seed``
and the setup's index, and the timed section and tail use what every
setup built where they can: per-item costs depend on the frame (the
rasterizer's window grows with the largest on-screen triangle), so one
run averages over several datasets.

Sizes are fixed per ``--seconds`` (not a time-boxed loop), so one seed
always does the same work and the final training loss and
``drive_err`` can be compared for equality across runs and commits.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

import dsaa.diffcore as dc
from dsaa.avatar import AvatarModel, parse_manifest
from dsaa.harness import TrainConfig, TrainData, drive, load_model, train
from dsaa.imgio import read_pgm, read_ppm
from dsaa.rng import stream
from dsaa.synthdata import (default_scene, frame_mesh, frame_texture,
                            generate_dataset, load_frame, load_manifest,
                            render_views, split_dataset)

now = time.perf_counter
REFERENCE_SECONDS = 15   # the sizes below are tuned for this run length


class Samples:
    """Per-item timings, outcomes and checks gathered over one run."""

    def __init__(self, clock):
        self.clock = clock     # speed.SpeedSampler; all times go through it
        self.gen = []          # frames/s, one value per dataset build
        self.ao = []           # s per AO map
        self.mesh = []         # s per phase-1 step
        self.image = []        # s per phase-2 step
        self.first_steps = []  # s, steps left out of the medians
        self.zero = []         # s per zero-mode drive call
        self.fit = []          # s per fit-mode drive call
        self.losses = []       # final total loss of each training run
        self.zero_err = {}
        self.ops = 0
        self.checks = []       # (name, ok, detail)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), str(detail)))


# ------------------------------------------------------------------ stages

def scene_seed(seed: int, k: int) -> int:
    """Scene seed of the k-th setup, so each setup builds its own data."""
    return int(stream(seed, "perfbench", "setup", k).integers(2 ** 31))


def build_dataset(s: Samples, root: Path, seed: int, n_std: int,
                  n_test: int) -> TrainData:
    """generate_dataset (+ split_dataset with novel-pose frames), then
    TrainData.ao for every frame; checks the result."""
    spec = default_scene(seed=seed)
    t = now()
    m = generate_dataset(spec, root, n_std)
    if n_test:
        m = split_dataset(m, n_test / n_std, seed=seed)
    s.gen.append((n_std + n_test) / s.clock.seconds(t, now()))
    s.ops += n_std + n_test
    data = TrainData(root)
    for fid in data.ids():
        t = now()
        data.ao(fid)
        s.ao.append(s.clock.seconds(t, now()))
        s.ops += 1
    data.flush_ao()
    check_dataset(s, root, data)
    return data


def check_dataset(s: Samples, root: Path, data: TrainData) -> None:
    """The manifest reloads through its hash check, one stored frame
    re-rendered from its stored factors quantizes to the bytes on disk,
    and the AO cache holds every frame."""
    name = f"data {root.parent.name}: manifest reloads through its hash check"
    try:
        m = load_manifest(root)
        s.check(name, m.ids() == data.ids()
                and m.spec_hash == data.manifest.spec_hash)
    except ValueError as e:
        s.check(name, False, e)
        return
    ids = m.ids()
    fid = ids[int(stream(m.spec.seed, "perfbench", "regen").integers(len(ids)))]
    rec = load_frame(m, fid)
    _, posed = frame_mesh(m.spec, rec.theta, rec.u)
    images, masks = render_views(m.spec, posed,
                                 frame_texture(m.spec, rec.u, rec.face))
    d = root / "frames" / fid
    same = True
    for c, (img, msk) in enumerate(zip(images, masks)):
        q_img = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
        q_msk = np.round(np.clip(msk, 0.0, 1.0) * 255.0).astype(np.uint8)
        same &= np.array_equal(q_img, read_ppm(d / f"cam{c}.ppm", False))
        same &= np.array_equal(q_msk, read_pgm(d / f"cam{c}_mask.pgm", False))
    s.check(f"data {root.parent.name}: frame {fid} re-renders to the stored "
            "bytes", same)
    cached = dc.load_arrays(data.root / f"ao{data.ao_res}.dsaa1")
    s.check(f"data {root.parent.name}: AO cache holds every frame",
            sorted(cached) == sorted(ids)
            and all(np.array_equal(cached[f][None], data.ao(f)) for f in ids))


def run_training(s: Samples, root: Path, out: Path, seed: int, batch: int,
                 phase1: int, phase2: int):
    """dsaa.harness.train; step times are the gaps between the echo
    callback's per-iteration lines. The first step of a run also carries
    its one-off work (AO cache load, model build, initial save), and the
    process's first phase-2 step its first large raster buffers; both
    are kept out of the medians."""
    stamps = []
    cfg = TrainConfig(dataset=str(root), out=str(out), iters=phase1 + phase2,
                      phase1=phase1, batch=batch, seed=seed,
                      checkpoint_every=phase1 + phase2)
    result = train(cfg, echo=lambda line: stamps.append((now(), line)))
    first = {1} | ({phase1 + 1} if not s.losses else set())
    prev = None
    for t, line in stamps:
        if line.startswith("iter "):
            it = int(line.split()[1].split("/")[0])
            dt = s.clock.seconds(prev, t)
            if it in first:
                s.first_steps.append(dt)
            else:
                (s.mesh if it <= phase1 else s.image).append(dt)
        prev = t
    s.ops += phase1 + phase2
    s.check(f"train {out.parent.name}: every loss part finite",
            all(math.isfinite(v) for rec in result.history
                for v in rec.values() if isinstance(v, float)))
    s.losses.append(result.history[-1]["total"])
    return result


def drive_zero(s: Samples, model, data, ids, rounds: int, out: Path) -> dict:
    """One zero-mode drive call per frame (renders written), `rounds`
    times over `ids`; every round must reproduce the first's errors."""
    errs = {}
    for r in range(rounds):
        for fid in ids:
            t = now()
            res = drive(model, data, [fid], mode="zero", out_dir=out / fid)
            s.zero.append(s.clock.seconds(t, now()))
            s.ops += 1
            err = res[fid]["err"]
            if r == 0:
                errs[fid] = err
            elif err != errs[fid]:
                s.check(f"drive: zero round {r} replays {fid}", False,
                        f"{err!r} != {errs[fid]!r}")
    s.zero_err.update({(str(out), f): e for f, e in errs.items()})
    return errs


def drive_fit(s: Samples, model, data, ids, steps: int) -> dict:
    errs = {}
    for fid in ids:
        t = now()
        res = drive(model, data, [fid], mode="fit", steps=steps)
        s.fit.append(s.clock.seconds(t, now()))
        s.ops += 1
        errs[fid] = res[fid]["err"]
    return errs


def check_drive(s: Samples, where: str, zero: dict, fit: dict) -> None:
    errs = list(zero.values()) + list(fit.values())
    s.check(f"drive {where}: every error finite",
            all(map(math.isfinite, errs)), errs)
    for fid, err in fit.items():
        s.check(f"drive {where}: fit <= zero on {fid}", err <= zero[fid],
                f"fit {err!r} zero {zero[fid]!r}")


def data_for_checkpoint(root, ckpt: Path) -> TrainData:
    """TrainData at the resolutions the checkpoint was trained with."""
    cfg = parse_manifest(Path(f"{ckpt / 'model.dsaa1'}.manifest").read_text())
    return TrainData(root, geo_res=cfg.geo_res, ao_res=cfg.shadow_res)


def _scaled(n: int, seconds: float, lo: int) -> int:
    return max(lo, round(n * seconds / REFERENCE_SECONDS))


# --------------------------------------------------------------- workloads

class Train:
    """Setup (one per dataset): an 8-frame dataset and its AO cache.
    Timed: one dsaa.harness.train call at batch 8 per dataset, phase-1
    then phase-2 steps. Tail: one zero-mode drive call on every frame of
    every dataset and a fit-mode call on one frame of each, with the
    model trained on that dataset."""

    setup_repeats = 3
    batch = 8

    def __init__(self, seconds):
        self.phase1 = 2
        self.phase2 = _scaled(2, seconds, 2)

    def sizes(self):
        return {"datasets": self.setup_repeats, "frames": self.batch,
                "batch": self.batch, "phase1_steps": self.phase1,
                "phase2_steps": self.phase2,
                "tail": "zero 1 round over every frame, fit 1 frame x 1 "
                        "step, per dataset"}

    def setup(self, s, work: Path, seed: int, k: int):
        seed = scene_seed(seed, k)
        return {"root": work / "data", "seed": seed,
                "data": build_dataset(s, work / "data", seed, self.batch, 0)}

    def timed(self, s, states, work: Path):
        out = []
        for k, st in enumerate(states):
            run = work / f"run{k}"
            result = run_training(s, st["root"], run, st["seed"], self.batch,
                                  self.phase1, self.phase2)
            out.append({"model": result.model, "run": run,
                        "loss": s.losses[-1]})
        return out

    def check(self, s, states, out):
        for k, (st, o) in enumerate(zip(states, out)):
            name = f"train run{k}: model.dsaa1 reloads via load_model"
            try:
                back = load_model(o["run"],
                                  data_for_checkpoint(st["root"], o["run"]))
                a = o["model"].store.state_arrays()
                b = back.store.state_arrays()
                s.check(name, sorted(a) == sorted(b)
                        and all(np.array_equal(a[n], b[n]) for n in a))
            except (ValueError, OSError) as e:
                s.check(name, False, e)

    def replay_key(self, out):
        return [o["loss"] for o in out]

    def tail(self, s, states, out, work: Path):
        for k, (st, o) in enumerate(zip(states, out)):
            data = data_for_checkpoint(st["root"], o["run"])
            ids = data.ids()
            zero = drive_zero(s, o["model"], data, ids, 1, work / f"zero{k}")
            fit = drive_fit(s, o["model"], data, ids[:1], 1)
            check_drive(s, f"data {k}", zero, fit)

    def probe_inputs(self, states, out):
        data = states[0]["data"]
        return AvatarModel(data.template, data.skeleton,
                           seed=states[0]["seed"]), data


class Drive:
    """Setup (one per dataset): a split dataset (2 train, 2 held-out and
    2 novel-pose frames), AO for all six, and a short batch-2 training
    run. Timed: per dataset, load the checkpoint, one zero-mode drive
    call per held-out and novel frame (renders written) over two rounds,
    then a fit-mode call on one of them (held-out and novel frames in
    turn)."""

    setup_repeats = 3

    def __init__(self, seconds):
        self.rounds = _scaled(2, seconds, 1)
        self.fit_steps = 1

    def sizes(self):
        return {"datasets": self.setup_repeats, "standard_frames": 4,
                "test_frames": 2, "novel_frames": 2,
                "zero_rounds": self.rounds, "fit_steps": self.fit_steps,
                "setup_train": "batch 2, 3+4 steps"}

    def setup(self, s, work: Path, seed: int, k: int):
        seed = scene_seed(seed, k)
        root, ckpt = work / "data", work / "run"
        build_dataset(s, root, seed, 4, 2)
        run_training(s, root, ckpt, seed, 2, 3, 4)
        return {"root": root, "ckpt": ckpt}

    def timed(self, s, states, work: Path):
        out = []
        for k, st in enumerate(states):
            data = data_for_checkpoint(st["root"], st["ckpt"])
            model = load_model(st["ckpt"], data)
            ids = (data.ids(group="standard", split="test")
                   + data.ids(group="novel"))
            zero = drive_zero(s, model, data, ids, self.rounds,
                              work / f"zero{k}")
            fit = drive_fit(s, model, data, ids[2 * (k % 2):][:1],
                            self.fit_steps)
            out.append({"data": data, "model": model, "zero": zero,
                        "fit": fit})
        return out

    def check(self, s, states, out):
        for k, o in enumerate(out):
            check_drive(s, f"data {k}", o["zero"], o["fit"])

    def replay_key(self, out):
        return [sorted(o["zero"].items()) + sorted(o["fit"].items())
                for o in out]

    def tail(self, s, states, out, work: Path):
        pass

    def probe_inputs(self, states, out):
        return out[0]["model"], out[0]["data"]


WORKLOADS = {"train": Train, "drive": Drive}


# ----------------------------------------------------------------- metrics

def tail_ms(samples):
    """(value ms, label): the highest percentile with at least ten samples
    beyond it, i.e. the 11th-largest sample; the maximum below 11."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return 1e3 * xs[-1], f"max of {n}"
    return 1e3 * xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def end_to_end(s: Samples, setups, wall: float):
    """(metrics {name: value}, notes) from one run's samples."""
    med = statistics.median
    zero = list(s.zero_err.values())
    tail, label = tail_ms(s.zero)
    metrics = {
        "setup_s": med(setups),
        "wall_s": wall,
        "gen_frames_per_s": med(s.gen),
        "ao_frame_ms_p50": 1e3 * med(s.ao),
        "mesh_step_ms_p50": 1e3 * med(s.mesh),
        "image_step_ms_p50": 1e3 * med(s.image),
        "drive_frame_ms_p50": 1e3 * med(s.zero),
        "drive_frame_ms_tail": tail,
        "fit_frame_ms_p50": 1e3 * med(s.fit),
        "drive_err": sum(zero) / len(zero),
    }
    notes = {
        "samples": {"dataset_builds": len(s.gen), "ao_maps": len(s.ao),
                    "mesh_steps": len(s.mesh), "image_steps": len(s.image),
                    "zero_calls": len(s.zero), "fit_calls": len(s.fit),
                    "setups": len(setups)},
        "drive_frame_ms_tail": label,
        "first_steps_ms": [round(1e3 * t, 3) for t in s.first_steps],
    }
    return metrics, notes
