"""Command line entry point.

Subcommands: gen-data, train, drive, report, heatmap. Every command
takes --seed and is deterministic under it. Exit codes: 0 success,
2 validation or path error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import TrainConfig, load_config, parse_data_config
from .data import TrainData
from .evaluate import build_report, drive, open_run, write_heatmaps
from .trainer import TrainingDiverged, train

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dsaa",
        description="Driving-signal-aware avatar experiments on synthetic "
                    "desk-scale data.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate and split a dataset")
    g.add_argument("--config", help="file of data.* = value lines")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, help="override the scene seed")
    g.add_argument("--frames", type=int, help="override data.n_frames")
    g.add_argument("--test-fraction", type=float,
                   help="override data.test_fraction (0 skips splitting)")

    t = sub.add_parser("train", help="run or resume a training job")
    t.add_argument("--config", help="file of train./model./loss. lines")
    t.add_argument("--dataset", help="dataset directory")
    t.add_argument("--out", help="run directory")
    t.add_argument("--seed", type=int)
    t.add_argument("--ablate", help="variant name (see docs)")
    t.add_argument("--iters", type=int)
    t.add_argument("--phase1", type=int)
    t.add_argument("--resume", action="store_true",
                   help="continue from out/trainer.dsaa1 when present")
    t.add_argument("--echo-every", type=int, default=25)

    d = sub.add_parser("drive", help="render frames from driving signals")
    d.add_argument("--checkpoint", required=True,
                   help="run directory or model container")
    d.add_argument("--dataset", required=True)
    d.add_argument("--frames", required=True,
                   help="comma-separated frame ids")
    d.add_argument("--mode", default="zero",
                   choices=("zero", "sample", "fit"))
    d.add_argument("--out", required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--steps", type=int, default=40,
                   help="fit-mode optimization steps")
    d.add_argument("--lr", type=float, default=0.1)

    r = sub.add_parser("report", help="ablation error table + diagnostics")
    r.add_argument("--dataset", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--run", action="append", default=[],
                   metavar="VARIANT=DIR",
                   help="one per variant, e.g. --run ours=runs/ours")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--frames", type=int, default=200,
                   help="per-split frame cap")

    h = sub.add_parser("heatmap", help="per-scalar influence heatmaps")
    h.add_argument("--checkpoint", required=True)
    h.add_argument("--dataset", required=True)
    h.add_argument("--out", required=True)
    h.add_argument("--indices", required=True,
                   help="comma-separated signal indices, or 'pose'/'all'")
    h.add_argument("--frame", help="dataset frame supplying the signal "
                                   "(default: zero signal)")
    h.add_argument("--n-perturb", type=int, default=16)
    h.add_argument("--seed", type=int, default=0)
    return p


# ----------------------------------------------------------------- commands

def _cmd_gen_data(args) -> int:
    from ..synthdata import (default_scene, generate_dataset, split_dataset,
                             split_test_count)

    overrides, n_frames, test_fraction = parse_data_config(
        Path(args.config).read_text() if args.config else "")
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.frames is not None:
        n_frames = args.frames
    if args.test_fraction is not None:
        test_fraction = args.test_fraction
    if not test_fraction >= 0:
        raise ValueError(f"test fraction must be >= 0, got {test_fraction}")
    if test_fraction > 0:
        split_test_count(n_frames, test_fraction)     # before writing frames
    spec = default_scene(**overrides)
    manifest = generate_dataset(spec, args.out, n_frames)
    print(f"generated {n_frames} frames in {args.out}")
    if test_fraction > 0:
        manifest = split_dataset(manifest, test_fraction, seed=spec.seed)
        n_test = len(manifest.ids(group="standard", split="test"))
        n_novel = len(manifest.ids(group="novel"))
        print(f"split: {n_test} test frames held out, {n_novel} novel-pose "
              f"frames rendered")
    return 0


def _cmd_train(args) -> int:
    overrides = {k: getattr(args, k) for k in
                 ("dataset", "out", "seed", "ablate", "iters", "phase1")
                 if getattr(args, k) is not None}
    if args.config:
        config = load_config(args.config, **overrides)
    else:
        config = TrainConfig(**overrides)
    every = max(1, args.echo_every)

    def echo(line: str) -> None:
        if line.startswith("iter "):
            n = int(line.split()[1].split("/")[0])
            if n % every and n != 1 and n != config.iters:
                return
        print(line, flush=True)

    train(config, resume=args.resume, echo=echo)
    print(f"checkpoint at {Path(config.out) / 'model.dsaa1'}")
    return 0


def _cmd_drive(args) -> int:
    data, model = open_run(args.checkpoint, args.dataset)
    frames = [f for f in args.frames.split(",") if f]
    results = drive(model, data, frames, mode=args.mode, out_dir=args.out,
                    seed=args.seed, steps=args.steps, lr=args.lr)
    for fid in frames:
        print(f"{fid}: error {results[fid]['err']:.3f}")
    mean = float(np.mean([results[f]["err"] for f in frames]))
    print(f"mean error {mean:.3f} ({args.mode} imputation), renders in "
          f"{args.out}")
    return 0


def _cmd_report(args) -> int:
    runs = {}
    for item in args.run:
        name, sep, path = item.partition("=")
        if not sep:
            raise ValueError(f"--run wants VARIANT=DIR, got {item!r}")
        if name in runs:
            raise ValueError(f"variant {name!r} given by more than one --run")
        runs[name] = path
    data = TrainData(args.dataset)
    text = build_report(runs, data, args.out, seed=args.seed,
                        eval_frames=args.frames)
    print(text, end="")
    return 0


def _cmd_heatmap(args) -> int:
    data, model = open_run(args.checkpoint, args.dataset)
    n = model.masks.data.shape[0]
    if args.indices == "all":
        indices = list(range(n))
    elif args.indices == "pose":
        indices = list(range(model.masks.n_pose))
    else:
        indices = [int(tok) for tok in args.indices.split(",") if tok]
    signal = None
    if args.frame is not None:
        signal = data.scalars(args.frame)
    paths = write_heatmaps(model, args.out, indices, signal=signal,
                           n_perturb=args.n_perturb, seed=args.seed)
    for path in paths:
        print(path)
    return 0


_COMMANDS = {"gen-data": _cmd_gen_data, "train": _cmd_train,
             "drive": _cmd_drive, "report": _cmd_report,
             "heatmap": _cmd_heatmap}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
