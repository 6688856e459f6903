"""Every file a run keeps is replaced whole by `keyvalue.write_atomic`.

A toy gen-data, train, train --resume, drive and report pipeline runs
with every `os.replace`, `os.rename`, `Path.write_text` and
`Path.write_bytes` call recorded, and each must come from the one
writer. Writes torn halfway, as on a full disk, leave the previous file
whole (or none where a run first writes it) and no temp file behind; a
checkpoint's trainer.dsaa1 is replaced last, so a torn save leaves it
and model.dsaa1 at one save."""

import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from dsaa import diffcore as dc, keyvalue
from dsaa.harness import VARIANTS, evaluate, trainer
from dsaa.harness.cli import main
from dsaa.synthdata import load_manifest

_RECORDED = ((os, "replace"), (os, "rename"), (Path, "write_text"),
             (Path, "write_bytes"))


def _train(root, run, *args):
    return main(["train", "--config", str(root / "train.cfg"),
                 "--dataset", str(root / "data"), "--out", str(root / run),
                 "--seed", "1", *args])


def _drive(root, out):
    frame = load_manifest(root / "data").ids(split="test")[0]
    return main(["drive", "--checkpoint", str(root / "run"),
                 "--dataset", str(root / "data"), "--frames", frame,
                 "--out", str(out)])


def _runs(root):
    """The report's run of each variant: root/run for ours,
    root/run_<variant> for each other."""
    return {v: root / ("run" if v == "ours" else f"run_{v}")
            for v in VARIANTS}


def _report(root, out):
    return main(["report", "--dataset", str(root / "data"), "--out", str(out),
                 "--frames", "1",
                 *(f"--run={path}" for path in _runs(root).values())])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """(root, calls): a split 32x32 dataset, an ours run trained 1
    iteration and resumed to 2, a 1-iteration run of each other variant,
    a drive and a report, all through main(argv); calls holds
    (function name, calling code object, args) of each recorded call the
    pipeline made."""
    root = tmp_path_factory.mktemp("writes")
    (root / "data.cfg").write_text("data.image_size = 32\n")
    (root / "train.cfg").write_text(
        "train.batch = 2\ntrain.phase1 = 1\n"
        "model.geo_res = 16\n")
    calls = []
    with pytest.MonkeyPatch.context() as m:
        for owner, name in _RECORDED:
            def recorded(*args, _real=getattr(owner, name), _name=name,
                         **kwargs):
                calls.append((_name, sys._getframe(1).f_code, args))
                return _real(*args, **kwargs)

            m.setattr(owner, name, recorded)
        assert main(["gen-data", "--config", str(root / "data.cfg"),
                     "--out", str(root / "data"), "--frames", "4",
                     "--test-fraction", "0.5", "--seed", "4"]) == 0
        assert _train(root, "run", "--iters", "1") == 0
        assert _train(root, "run", "--iters", "2", "--resume") == 0
        for v, run in _runs(root).items():
            if run.name != "run":
                assert _train(root, run.name, "--ablate", v,
                              "--iters", "1") == 0
        assert _drive(root, root / "drive") == 0
        assert _report(root, root / "report") == 0
    return root, calls


def test_every_kept_file_is_replaced_by_the_one_writer(pipeline):
    root, calls = pipeline
    strays = [(name, code.co_filename, code.co_name)
              for name, code, _ in calls
              if code is not keyvalue.write_atomic.__code__]
    assert not strays
    replaced = {Path(args[1]).name for name, _, args in calls
                if name == "replace"}
    ao_caches = {p.name for p in (root / "data").glob("ao*.dsaa1")}
    assert ao_caches
    assert {"manifest.txt", "config.txt", "train.log", "trainer.dsaa1",
            "model.dsaa1", "model.dsaa1.manifest", "drive.kv", "report.txt",
            "report.kv"} | ao_caches <= replaced
    assert not list(root.rglob("*.tmp"))


def _tear(monkeypatch, name):
    """Each write of the file `name`, or of a temp named after it, stops
    halfway as on a full disk; every other write goes through."""
    for attr in ("write_text", "write_bytes"):
        def torn(path, data, *args, _real=getattr(Path, attr), **kwargs):
            if path.name != name and not (path.name.startswith(f"{name}.")
                                          and path.suffix == ".tmp"):
                return _real(path, data, *args, **kwargs)
            raw = data.encode() if isinstance(data, str) else data
            with open(path, "wb") as f:
                f.write(raw[:len(raw) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, attr, torn)


def test_torn_drive_table_leaves_no_drive_kv(pipeline, tmp_path, monkeypatch,
                                             capsys):
    root, _ = pipeline
    out = tmp_path / "drive"
    out.mkdir()
    (out / "drive.kv").write_text("mode = zero\n")      # an earlier drive's
    _tear(monkeypatch, "drive.kv")
    assert _drive(root, out) == 2
    assert "No space left on device" in capsys.readouterr().err
    names = sorted(p.name for p in out.iterdir())
    assert names and all(n.endswith(".ppm") for n in names)


@pytest.mark.parametrize("name", ["report.txt", "report.kv"])
def test_torn_report_file_leaves_the_previous_report(pipeline, tmp_path,
                                                     monkeypatch, capsys, name):
    root, _ = pipeline
    out = tmp_path / "report"
    shutil.copytree(root / "report", out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    _tear(monkeypatch, name)
    assert _report(root, out) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_torn_divergence_dump_leaves_no_partial_file(pipeline, tmp_path,
                                                     monkeypatch, capsys):
    root, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(root / "run", run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    real_step = trainer._step

    def step(cfg, data, model, *rest):
        next(iter(model.store.items()))[1].data.reshape(-1)[0] = np.nan
        return real_step(cfg, data, model, *rest)

    monkeypatch.setattr(trainer, "_step", step)
    _tear(monkeypatch, "diverged.txt")
    assert main(["train", "--config", str(root / "train.cfg"),
                 "--dataset", str(root / "data"), "--out", str(run),
                 "--seed", "1", "--iters", "3", "--resume"]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert not (run / "diverged.txt").exists()
    after = {p.name: p.read_bytes() for p in run.iterdir()}
    assert after.keys() == before.keys()
    for name in ("trainer.dsaa1", "model.dsaa1", "model.dsaa1.manifest"):
        assert after[name] == before[name], name


@pytest.mark.parametrize("name", ["config.txt", "train.log", "trainer.dsaa1",
                                  "model.dsaa1.manifest"])
def test_torn_run_file_leaves_the_previous_file_and_no_temp(
        pipeline, tmp_path, monkeypatch, capsys, name):
    root, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(root / "run", run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    _tear(monkeypatch, name)
    assert main(["train", "--config", str(root / "train.cfg"),
                 "--dataset", str(root / "data"), "--out", str(run),
                 "--seed", "1", "--iters", "3", "--resume"]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert (run / name).read_bytes() == before[name]
    assert sorted(p.name for p in run.iterdir()) == sorted(before)


def _resume(root, run, iters):
    return main(["train", "--config", str(root / "train.cfg"),
                 "--dataset", str(root / "data"), "--out", str(run),
                 "--seed", "1", "--iters", str(iters), "--resume"])


def test_torn_model_save_leaves_the_trainer_state_of_the_same_save(
        pipeline, tmp_path, monkeypatch, capsys):
    # model.dsaa1 is replaced before trainer.dsaa1, so a save torn there
    # leaves both at the previous checkpoint
    root, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(root / "run", run)
    _tear(monkeypatch, "model.dsaa1")
    assert _resume(root, run, 3) == 2
    assert "No space left on device" in capsys.readouterr().err
    state = dc.load_arrays(run / "trainer.dsaa1")
    assert state["iter"][0] == 2
    saved = dc.load_arrays(run / "model.dsaa1")
    kept = {k[len("model/"):]: v for k, v in state.items()
            if k.startswith("model/")}
    assert saved.keys() == kept.keys()
    for name, value in kept.items():
        assert saved[name].tobytes() == value.tobytes(), name


def test_resume_after_a_torn_trainer_save_matches_an_uninterrupted_run(
        pipeline, tmp_path, capsys):
    root, _ = pipeline
    whole, torn = tmp_path / "whole", tmp_path / "torn"
    for run in (whole, torn):
        shutil.copytree(root / "run", run)
    assert _resume(root, whole, 3) == 0
    with pytest.MonkeyPatch.context() as m:
        _tear(m, "trainer.dsaa1")
        assert _resume(root, torn, 3) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert _resume(root, torn, 3) == 0
    for name in ("model.dsaa1", "model.dsaa1.manifest", "trainer.dsaa1"):
        assert (torn / name).read_bytes() == (whole / name).read_bytes(), name


def test_report_refuses_an_out_file_before_driving(pipeline, tmp_path,
                                                   monkeypatch, capsys):
    root, _ = pipeline
    out = tmp_path / "a_file"
    out.write_text("")
    drives, real = [], evaluate.drive

    def drive(*args, **kwargs):
        drives.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "drive", drive)
    assert _report(root, out) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")
    assert not drives       # refused before any variant was driven
    assert out.read_text() == ""
