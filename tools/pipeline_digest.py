"""Byte comparison of one fixed toy CLI pipeline, parent tree against the
working tree.

    python3 tools/pipeline_digest.py --parent REF

Run from the repository root. REF is exported (``git archive``, as in
``tools/bench_pairs.py``) into a temporary directory; the change is the
working tree itself. In each tree the same pipeline runs, every step
through ``python -m dsaa.harness.cli`` with that tree's ``src`` on
PYTHONPATH: ``gen-data`` of 12 frames split in half (6 train, 6 test
and 6 novel frames), a 3-iteration ``train`` of each report variant
(``ours`` resumed after its first iteration), ``drive`` in zero, sample
and fit mode, ``heatmap`` and ``report`` on the 6 test frames. The
model runs on a 16-pixel geometry grid (``model.geo_res = 16``; the
texture is twice that). Each run takes one phase-1 and two phase-2
steps, so a change that moves only the decoder in the first phase-2
step reaches the encoder in the second, and with it the report's probe
and HSIC entries (6 test frames are the fewest the HSIC test scores).
Steps that do not depend on each other run two at a time. Every file
the pipeline writes is hashed (sha256), and each file whose hash
differs between the trees, or that only one tree wrote, is printed with
its line counts.
Exits 1 when any file differs, 0 when every file is byte-identical.
Both trees read the same ``INPUTS``, so a parent whose config keys
differ cannot run them; for such a pair call ``digest_tree`` on each
tree with its own inputs. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_pairs import _export

VARIANTS = ("ours", "pose+face", "pose+face+latent", "no_disent",
            "no_spatial_local", "no_shadow")
INPUTS = {
    "data.cfg": "data.image_size = 32\ndata.n_cameras = 2\n",
    "train.cfg": "train.batch = 2\ntrain.phase1 = 1\nmodel.geo_res = 16\n",
}


def pipeline() -> list[list[list[str]]]:
    """The pipeline's CLI argument lists, relative to the directory it
    runs in, as stages run in order, each a list of steps that do not
    depend on each other. Each step that adds maps to the dataset's AO
    cache (the first ``ours`` iteration bakes the train frames, zero-mode
    drive its own frames) shares its stage only with a step that reads
    no AO map, so no two processes ever write the cache at once."""
    train = {v: ["train", "--config", "train.cfg", "--dataset", "data",
                 "--out", f"runs/{v}", "--ablate", v, "--seed", "1"]
             for v in VARIANTS}
    drive = {mode: ["drive", "--checkpoint", "runs/ours", "--dataset", "data",
                    "--frames", "000000,novel0000", "--mode", mode,
                    "--steps", "2", "--out", f"drive/{mode}"]
             for mode in ("zero", "sample", "fit")}
    return [
        [["gen-data", "--config", "data.cfg", "--out", "data", "--frames", "12",
          "--test-fraction", "0.5", "--seed", "4"]],
        [train["ours"] + ["--iters", "1"], train["no_shadow"] + ["--iters", "3"]],
        [train["ours"] + ["--iters", "3", "--resume"]]
        + [train[v] + ["--iters", "3"] for v in VARIANTS
           if v not in ("ours", "no_shadow")],
        [drive["zero"], ["heatmap", "--checkpoint", "runs/ours", "--dataset", "data",
                         "--out", "heatmap", "--indices", "0,3", "--frame", "000001",
                         "--n-perturb", "4"]],
        [drive["sample"], drive["fit"]],
        [["report", "--dataset", "data", "--out", "report", "--frames", "6",
          *(f"--run={v}=runs/{v}" for v in VARIANTS)]],
    ]


def _run_step(argv, workdir: Path, env: dict, tree: Path) -> None:
    proc = subprocess.run([sys.executable, "-m", "dsaa.harness.cli", *argv],
                          cwd=workdir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} on {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")


def digest_tree(tree: Path, workdir: Path) -> dict[str, str]:
    """Run the pipeline in `workdir` on the sources of `tree`; returns
    {path relative to workdir: sha256} of every file it wrote."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    # two steps at a time, each on one BLAS thread, so they do not
    # oversubscribe a two-core machine
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for steps in pipeline():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for done in [pool.submit(_run_step, argv, workdir, env, tree)
                         for argv in steps]:
                done.result()
    written = (p for p in sorted(workdir.rglob("*")) if p.is_file())
    return {p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in written if p.relative_to(workdir).as_posix() not in INPUTS}


def _lines(path: Path) -> str:
    return str(path.read_bytes().count(b"\n")) if path.is_file() else "-"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="pipeline_digest_") as tmp:
        tmp = Path(tmp)
        _export(args.parent, tmp / "tree")
        runs = {"parent": tmp / "parent", "change": tmp / "change"}
        digests = {"parent": digest_tree(tmp / "tree", runs["parent"]),
                   "change": digest_tree(Path.cwd(), runs["change"])}
        names = sorted(set(digests["parent"]) | set(digests["change"]))
        differ = [n for n in names
                  if digests["parent"].get(n) != digests["change"].get(n)]
        print(f"{len(names)} files written, {len(differ)} differ")
        for n in differ:
            print(f"differs: {n} (lines {_lines(runs['parent'] / n)} -> "
                  f"{_lines(runs['change'] / n)})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
