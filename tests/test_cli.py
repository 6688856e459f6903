"""The dsaa command line end to end through main(argv): gen-data, short
train runs with resume and their failure exit codes, drive in every mode,
heatmap and report."""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsaa
from dsaa import diffcore as dc, keyvalue
from dsaa.harness import ABLATIONS, TrainData, evaluate, load_config, trainer
from dsaa.harness.cli import main
from dsaa.harness.evaluate import open_run
from dsaa.synthdata import load_manifest, split_dataset


def test_gen_data_train_drive(tmp_path):
    data = tmp_path / "data"
    data_cfg = tmp_path / "data.cfg"
    data_cfg.write_text("data.image_size = 32\n")
    assert main(["gen-data", "--config", str(data_cfg), "--out", str(data),
                 "--frames", "3", "--test-fraction", "0", "--seed", "4"]) == 0

    # geo_res 16 gives a shadow grid of 8, unlike the TrainData defaults,
    # so drive must take both resolutions from the checkpoint
    run = tmp_path / "run"
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("train.batch = 2\ntrain.iters = 2\ntrain.phase1 = 1\n"
                         "model.geo_res = 16\n")
    assert main(["train", "--config", str(train_cfg), "--dataset", str(data),
                 "--out", str(run), "--seed", "1"]) == 0

    frame = load_manifest(data).ids()[0]
    out = tmp_path / "drive"
    assert main(["drive", "--checkpoint", str(run), "--dataset", str(data),
                 "--frames", frame, "--mode", "zero", "--out", str(out)]) == 0
    assert (out / f"{frame}_cam0.ppm").exists()


def test_rewritten_frames_get_fresh_ao(tmp_path):
    # AO maps are stored by frame id alone, so regenerating a dataset or
    # re-splitting it in place must not leave the old frames' maps behind
    cfg = tmp_path / "data.cfg"
    cfg.write_text("data.image_size = 32\n")

    def gen(name, seed, split_seed=None):
        assert main(["gen-data", "--config", str(cfg), "--out",
                     str(tmp_path / name), "--frames", "4", "--seed", str(seed),
                     "--test-fraction", "0"]) == 0
        if split_seed is not None:
            split_dataset(load_manifest(tmp_path / name), 0.5, split_seed)
        return TrainData(tmp_path / name)

    gen("data", 1).ensure_ao(["000000"])
    np.testing.assert_array_equal(gen("data", 2).ao("000000"),
                                  gen("fresh", 2).ao("000000"))

    gen("split", 2, split_seed=1).ensure_ao(["novel0000"])
    split_dataset(load_manifest(tmp_path / "split"), 0.5, 2)
    np.testing.assert_array_equal(TrainData(tmp_path / "split").ao("novel0000"),
                                  gen("fresh_split", 2, split_seed=2).ao("novel0000"))


# ------------------------------------------------- one split dataset, one run

@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """A split 32x32 dataset (2 train, 2 test, 2 novel frames) and a
    3-iteration geo_res 16 run on it, both made through main(argv)."""
    root = tmp_path_factory.mktemp("cli")
    (root / "data.cfg").write_text("data.image_size = 32\n")
    (root / "train.cfg").write_text(
        "train.batch = 2\ntrain.phase1 = 1\n"
        "model.geo_res = 16\n")
    assert main(["gen-data", "--config", str(root / "data.cfg"),
                 "--out", str(root / "data"), "--frames", "4",
                 "--test-fraction", "0.5", "--seed", "4"]) == 0
    assert _train(root, "run", "--iters", "3") == 0
    return root


def _train(root, run, *args):
    return main(["train", "--config", str(root / "train.cfg"),
                 "--dataset", str(root / "data"), "--out", str(root / run),
                 "--seed", "1", *args])


def test_resume_matches_uninterrupted_run(cli_run):
    assert _train(cli_run, "resumed", "--iters", "2") == 0
    assert _train(cli_run, "resumed", "--iters", "3", "--resume") == 0
    for name in ("trainer.dsaa1", "model.dsaa1", "model.dsaa1.manifest"):
        assert (cli_run / "resumed" / name).read_bytes() \
            == (cli_run / "run" / name).read_bytes(), name


def test_run_bytes_do_not_depend_on_blas_threads(cli_run):
    # runs split into one-thread lanes must match a rerun on more threads
    # byte for byte
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(dsaa.__file__).parents[1]))
        subprocess.run([sys.executable, "-m", "dsaa.harness.cli", "train",
                        "--config", str(cli_run / "train.cfg"),
                        "--dataset", str(cli_run / "data"),
                        "--out", str(cli_run / f"blas{threads}"),
                        "--seed", "1", "--iters", "2"],
                       env=env, check=True, capture_output=True)
    for name in ("model.dsaa1", "trainer.dsaa1"):
        assert (cli_run / "blas1" / name).read_bytes() \
            == (cli_run / "blas2" / name).read_bytes(), name


class _Stop(Exception):
    pass


@pytest.fixture(scope="module")
def four_iters(cli_run):
    """The config of a 4-iteration run checkpointed every 2 iterations,
    and the directory it ran into uninterrupted."""
    config = load_config(cli_run / "train.cfg", dataset=str(cli_run / "data"),
                         seed=1, iters=4, checkpoint_every=2)
    whole = cli_run / "four_whole"
    trainer.train(dataclasses.replace(config, out=str(whole)))
    return config, whole


@pytest.mark.parametrize("stop", ["crash", "divergence"])
def test_resume_between_checkpoints_logs_each_iteration_once(
        four_iters, monkeypatch, stop):
    # stopped during iteration 3, the run resumes from its iteration-2
    # checkpoint and runs iteration 3 again
    config, whole = four_iters
    out = whole.with_name(f"four_{stop}")
    config = dataclasses.replace(config, out=str(out))
    if stop == "crash":
        def echo(line):
            if line.startswith("iter 3/"):
                raise _Stop

        with pytest.raises(_Stop):
            trainer.train(config, echo=echo)
    else:
        real_step = trainer._step

        def step(*args):
            rec = real_step(*args)
            if rec["iter"] == 3:
                rec["total"] = float("nan")
            return rec

        monkeypatch.setattr(trainer, "_step", step)
        with pytest.raises(trainer.TrainingDiverged):
            trainer.train(config)
        monkeypatch.undo()
    assert "iter 3/4" in (out / "train.log").read_text()
    trainer.train(config, resume=True)
    for name in ("train.log", "trainer.dsaa1", "model.dsaa1"):
        assert (out / name).read_bytes() == (whole / name).read_bytes(), name


def _torn_write_bytes(path, data):
    """Path.write_bytes, the one writer's write step, stopping halfway as
    on a full disk."""
    with open(path, "wb") as f:
        f.write(data[:len(data) // 2])
    raise OSError(28, "No space left on device")


def test_interrupted_config_write_leaves_the_previous_config(cli_run,
                                                             monkeypatch):
    run = cli_run / "torn_config"
    shutil.copytree(cli_run / "run", run)
    before = (run / "config.txt").read_bytes()
    with monkeypatch.context() as m:
        m.setattr(Path, "write_bytes", _torn_write_bytes)
        assert _train(cli_run, "torn_config", "--iters", "4", "--resume") == 2
    assert (run / "config.txt").read_bytes() == before
    assert _train(cli_run, "torn_config", "--iters", "4", "--resume") == 0


def test_interrupted_log_trim_leaves_the_previous_log(cli_run, tmp_path,
                                                      monkeypatch):
    log = tmp_path / "train.log"
    shutil.copy(cli_run / "run" / "train.log", log)
    before = log.read_bytes()
    assert before.count(b"\n") == 3
    monkeypatch.setattr(Path, "write_bytes", _torn_write_bytes)
    with pytest.raises(OSError):
        trainer._trim_log(log, 1)
    assert log.read_bytes() == before


def test_resume_refuses_config_with_removed_train_keys(cli_run, capsys):
    # run directories written while TrainConfig still carried eval_frames,
    # drive_steps and drive_lr hold those keys; they are a validation
    # error on resume, not a divergence, and nothing in the run changes
    run = cli_run / "old_keys"
    shutil.copytree(cli_run / "run", run)
    old = (run / "config.txt").read_text()
    text = old.replace("train.ablate = ours\n",
                       "train.ablate = ours\ntrain.eval_frames = 200\n"
                       "train.drive_steps = 40\ntrain.drive_lr = 0.1\n")
    assert text != old
    (run / "config.txt").write_text(text)
    state = (run / "trainer.dsaa1").read_bytes()
    assert _train(cli_run, "old_keys", "--iters", "4", "--resume") == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err
    for key in ("train.eval_frames", "train.drive_steps", "train.drive_lr"):
        assert key in err
    assert (run / "config.txt").read_text() == text
    assert (run / "trainer.dsaa1").read_bytes() == state
    assert not (run / "diverged.txt").exists()


def test_resume_refuses_config_with_keys_that_became_constants(cli_run,
                                                               capsys):
    # run directories written while the model sizes and the learning rate
    # were settings hold model.tex_res, train.lr and their like; such a
    # run no longer resumes, and no file in it changes
    run = cli_run / "constant_keys"
    shutil.copytree(cli_run / "run", run)
    text = (run / "config.txt").read_text().replace(
        "model.geo_res = 16\n",
        "model.geo_res = 16\nmodel.tex_res = 32\n") + "train.lr = 0.001\n"
    (run / "config.txt").write_text(text)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert _train(cli_run, "constant_keys", "--iters", "4", "--resume") == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err
    assert "model.tex_res" in err and "train.lr" in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_step_value_error_with_finite_params_is_not_divergence(
        cli_run, monkeypatch, capsys):
    def step(*args):
        raise ValueError("shapes (3,) and (4,) do not match")

    monkeypatch.setattr(trainer, "_step", step)
    assert _train(cli_run, "bad_shape", "--iters", "1") == 2
    assert "do not match" in capsys.readouterr().err
    assert not (cli_run / "bad_shape" / "diverged.txt").exists()


def test_nan_parameter_is_divergence(cli_run, monkeypatch):
    real_step = trainer._step
    poisoned = []

    def step(cfg, data, model, *rest):
        name, t = next(iter(model.store.items()))
        t.data.reshape(-1)[0] = np.nan
        poisoned.append(name)
        return real_step(cfg, data, model, *rest)

    monkeypatch.setattr(trainer, "_step", step)
    assert _train(cli_run, "nan_param", "--iters", "1") == 3
    text = (cli_run / "nan_param" / "diverged.txt").read_text()
    assert text.splitlines()[0] == f"non-finite components: {poisoned[0]}"


def test_nonfinite_update_is_not_checkpointed(cli_run, monkeypatch):
    # each loss is read before its update, so a step that leaves a
    # parameter non-finite still reports a finite loss; its state must not
    # replace the last checkpoint
    run = cli_run / "inf_update"
    shutil.copytree(cli_run / "run", run)
    names = ("trainer.dsaa1", "model.dsaa1")
    before = {name: (run / name).read_bytes() for name in names}
    real_step = trainer._step
    poisoned = []

    def step(cfg, data, model, *rest):
        rec = real_step(cfg, data, model, *rest)
        name, t = next(iter(model.store.items()))
        t.data.reshape(-1)[0] = np.inf
        poisoned.append(name)
        return rec

    monkeypatch.setattr(trainer, "_step", step)
    assert _train(cli_run, "inf_update", "--iters", "4", "--resume") == 3
    text = (run / "diverged.txt").read_text()
    assert text.splitlines()[0] == f"non-finite components: {poisoned[0]}"
    for name in names:
        assert (run / name).read_bytes() == before[name], name


@pytest.mark.parametrize("mode", ["sample", "fit"])
def test_drive_sample_and_fit(cli_run, mode):
    frame = load_manifest(cli_run / "data").ids(split="test")[0]
    out = cli_run / f"drive_{mode}"
    assert main(["drive", "--checkpoint", str(cli_run / "run"),
                 "--dataset", str(cli_run / "data"), "--frames", frame,
                 "--mode", mode, "--steps", "2", "--out", str(out)]) == 0
    kv = keyvalue.read((out / "drive.kv").read_text())
    assert kv["mode"] == mode and float(kv[f"frame.{frame}"]) >= 0.0
    assert (out / f"{frame}_cam0.ppm").exists()


def test_drive_returns_what_drive_kv_records(cli_run, tmp_path):
    data, model = open_run(cli_run / "run", cli_run / "data")
    frames = load_manifest(cli_run / "data").ids(split="test")
    out = tmp_path / "drive"
    results = evaluate.drive(model, data, frames, mode="sample",
                             out_dir=out, seed=3)
    kv = keyvalue.read((out / "drive.kv").read_text())
    n_cam = len(data.cameras)
    assert list(results) == frames
    assert set(kv) == {"mode", "seed", "mean"} | {
        f"frame.{f}{c}" for f in frames
        for c in ["", *(f".cam{k}" for k in range(n_cam))]}
    for fid, r in results.items():
        assert set(r) == {"z", "cams", "err"}
        assert r["z"].shape == (model.config.d_z,)
        assert r["cams"] == [float(kv[f"frame.{fid}.cam{k}"])
                             for k in range(n_cam)]
        assert r["err"] == float(kv[f"frame.{fid}"])
    assert float(kv["mean"]) == float(np.mean([r["err"] for r in
                                               results.values()]))
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["drive.kv"] + [f"{f}_cam{k}.ppm" for f in frames
                        for k in range(n_cam)])


def test_drive_failing_partway_leaves_renders_but_no_table(cli_run, tmp_path,
                                                           monkeypatch):
    data, model = open_run(cli_run / "run", cli_run / "data")
    first, second = load_manifest(cli_run / "data").ids(group="standard",
                                                          split="test")
    real = evaluate.render_frame

    def render_frame(model, data, frame_id, z=None):
        if frame_id == second:
            raise RuntimeError("render failed")
        return real(model, data, frame_id, z)

    monkeypatch.setattr(evaluate, "render_frame", render_frame)
    out = tmp_path / "drive"
    out.mkdir()
    (out / "drive.kv").write_text("mode = zero\n")      # an earlier drive's
    with pytest.raises(RuntimeError, match="render failed"):
        evaluate.drive(model, data, [first, second], out_dir=out)
    assert sorted(p.name for p in out.iterdir()) == [
        f"{first}_cam{k}.ppm" for k in range(len(data.cameras))]


def test_drive_fit_leaves_the_model_parameters_as_it_found_them(cli_run, monkeypatch):
    data, model = open_run(cli_run / "run", cli_run / "data")
    frame = load_manifest(cli_run / "data").ids(split="test")[0]
    params = model.store.tensors()
    evaluate.drive(model, data, [frame], mode="fit", steps=2)
    assert all(t.grad is None and t.requires_grad for t in params)

    def failing(*args, **kwargs):
        raise RuntimeError("loss failed")

    monkeypatch.setattr(evaluate, "losses", failing)
    with pytest.raises(RuntimeError, match="loss failed"):
        evaluate.drive(model, data, [frame], mode="fit", steps=2)
    assert all(t.grad is None and t.requires_grad for t in params)


def test_heatmap(cli_run):
    out = cli_run / "heat"
    frame = load_manifest(cli_run / "data").ids()[0]
    assert main(["heatmap", "--checkpoint", str(cli_run / "run"),
                 "--dataset", str(cli_run / "data"), "--out", str(out),
                 "--indices", "0,3", "--frame", frame,
                 "--n-perturb", "4"]) == 0
    assert len(list(out.glob("heatmap_*.pgm"))) == 2


@pytest.mark.parametrize("indices", ["pose", "all"])
def test_heatmap_named_index_sets(cli_run, indices):
    out = cli_run / f"heat_{indices}"
    assert main(["heatmap", "--checkpoint", str(cli_run / "run"),
                 "--dataset", str(cli_run / "data"), "--out", str(out),
                 "--indices", indices, "--n-perturb", "2"]) == 0
    masks = open_run(cli_run / "run", cli_run / "data")[1].masks
    n = masks.n_pose if indices == "pose" else masks.data.shape[0]
    assert masks.n_pose < masks.data.shape[0]
    assert sorted(p.name for p in out.glob("heatmap_*.pgm")) == sorted(
        f"heatmap_{k:02d}_{masks.names[k].replace(':', '_')}.pgm" for k in range(n))


@pytest.fixture(scope="module")
def cli_reports(cli_run):
    """Two report directories, written one after the other by the same
    report: pose+face on a latent-free run of its own, every other
    variant on the fixture's run."""
    assert _train(cli_run, "run_pose_face", "--iters", "3",
                  "--ablate", "pose+face") == 0
    runs = dict.fromkeys(ABLATIONS, cli_run / "run")
    runs["pose+face"] = cli_run / "run_pose_face"
    runs = [f"--run={v}={path}" for v, path in runs.items()]
    outs = [cli_run / "report", cli_run / "report_again"]
    for out in outs:
        assert main(["report", "--dataset", str(cli_run / "data"),
                     "--out", str(out), "--frames", "2", *runs]) == 0
    return outs


def test_report_uses_each_runs_resolutions(cli_reports):
    # the run's shadow grid is 8, not the TrainData default of 16
    kv = keyvalue.read((cli_reports[0] / "report.kv").read_text())
    assert all(f"error.{v}.test" in kv for v in ABLATIONS)


@pytest.fixture(scope="module")
def six_test_frame_report(cli_run, cli_reports):
    """The report of cli_reports' runs on a dataset of the same scene with
    2 train and 6 test frames, the fewest at which the HSIC test can
    reject."""
    root = cli_run / "six"
    assert main(["gen-data", "--config", str(cli_run / "data.cfg"),
                 "--out", str(root / "data"), "--frames", "8",
                 "--test-fraction", "0.75", "--seed", "4"]) == 0
    runs = dict.fromkeys(ABLATIONS, cli_run / "run")
    runs["pose+face"] = cli_run / "run_pose_face"
    out = root / "report"
    assert main(["report", "--dataset", str(root / "data"), "--out", str(out),
                 *[f"--run={v}={path}" for v, path in runs.items()]]) == 0
    return out


def test_report_scores_independence_of_each_latent_variant(six_test_frame_report):
    kv = keyvalue.read((six_test_frame_report / "report.kv").read_text())
    assert kv["frames.test"] == "6"
    latent = [v for v in ABLATIONS if v != "pose+face"]
    assert len(latent) == 5
    for v in latent:
        assert np.isfinite(float(kv[f"hsic.{v}"]))
        assert 0.0 < float(kv[f"hsic_p.{v}"]) <= 1.0
    assert not [k for k in kv if k.endswith(".pose+face")
                and k.startswith(("hsic", "probe_r2."))]
    assert not [k for k in kv if k.startswith("mi.")]
    text = (six_test_frame_report / "report.txt").read_text()
    assert "HSIC(z;signal)" in text and "MI(z;signal)" not in text
    assert "omitted" not in text


def test_report_omits_hsic_below_six_test_frames(cli_reports):
    # at 2 test frames every permutation reproduces the statistic, so p
    # is 1 whatever z holds; the probe needs only 2 frames per split
    kv = keyvalue.read((cli_reports[0] / "report.kv").read_text())
    assert kv["frames.test"] == "2"
    latent = [v for v in ABLATIONS if v != "pose+face"]
    for v in latent:
        assert np.isfinite(float(kv[f"probe_r2.{v}"]))
    assert not [k for k in kv if k.startswith("hsic")]
    text = (cli_reports[0] / "report.txt").read_text()
    assert "HSIC(z;signal) omitted: HSIC needs at least 6 test frames, " \
        "the probe 2 train and 2 test frames" in text


def test_report_rescores_without_cache_files(cli_run, cli_reports):
    first, again = (out / "report.kv" for out in cli_reports)
    assert first.read_bytes() == again.read_bytes()
    assert not list(cli_run.rglob("errors_*.kv"))


@pytest.mark.parametrize("frames", ["0", "-1"])
def test_report_rejects_frame_cap_below_one(cli_run, tmp_path, capsys, frames):
    runs = [f"--run={v}={cli_run / 'run'}" for v in ABLATIONS]
    out = tmp_path / "report"
    assert main(["report", "--dataset", str(cli_run / "data"), "--out",
                 str(out), "--frames", frames, *runs]) == 2
    assert f"report frame cap must be >= 1, got {frames}" in capsys.readouterr().err
    assert not out.exists()


def test_report_refuses_a_repeated_variant(cli_run, tmp_path, capsys):
    # the later --run would silently replace the earlier one's directory
    runs = [f"--run={v}={cli_run / 'run'}" for v in ABLATIONS]
    out = tmp_path / "report"
    assert main(["report", "--dataset", str(cli_run / "data"), "--out",
                 str(out), "--frames", "1", *runs,
                 f"--run=ours={cli_run / 'run'}"]) == 2
    assert "variant 'ours' given by more than one --run" \
        in capsys.readouterr().err
    assert not out.exists()


def test_report_checks_every_run_before_scoring_any(cli_run, tmp_path,
                                                     capsys, monkeypatch):
    runs = [f"--run={v}={cli_run / 'run'}" for v in ABLATIONS[:-1]]
    runs.append(f"--run={ABLATIONS[-1]}={tmp_path / 'nosuch'}")
    renders, real = [], evaluate.rasterize

    def rasterize(*args, **kwargs):
        renders.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "rasterize", rasterize)
    out = tmp_path / "report"
    assert main(["report", "--dataset", str(cli_run / "data"), "--out",
                 str(out), "--frames", "1", *runs]) == 2
    assert "no model checkpoint at" in capsys.readouterr().err
    assert not renders      # no variant was scored
    assert not out.exists()


def test_report_on_one_test_frame(tmp_path):
    # a single test frame leaves too few rows for the HSIC test's
    # permutations and the probe's held-out variance: both are omitted
    (tmp_path / "data.cfg").write_text("data.image_size = 32\n")
    (tmp_path / "train.cfg").write_text(
        "train.batch = 2\ntrain.phase1 = 1\n"
        "model.geo_res = 16\n")
    assert main(["gen-data", "--config", str(tmp_path / "data.cfg"),
                 "--out", str(tmp_path / "data"), "--frames", "4",
                 "--test-fraction", "0.25", "--seed", "4"]) == 0
    assert len(load_manifest(tmp_path / "data").ids(group="standard",
                                                    split="test")) == 1
    assert _train(tmp_path, "run", "--iters", "2") == 0
    out = tmp_path / "report"
    runs = [f"--run={v}={tmp_path / 'run'}" for v in ABLATIONS]
    assert main(["report", "--dataset", str(tmp_path / "data"),
                 "--out", str(out), *runs]) == 0
    kv = keyvalue.read((out / "report.kv").read_text())
    assert kv["frames.test"] == "1"
    assert all(f"error.{v}.test" in kv and f"locality.{v}" in kv
               for v in ABLATIONS)
    assert not [k for k in kv if k.startswith(("mi.", "hsic", "probe_r2."))]
    assert "omitted" in (out / "report.txt").read_text()


def test_drive_on_truncated_checkpoint_exits_2(cli_run, capsys):
    run = cli_run / "truncated"
    run.mkdir()
    (run / "model.dsaa1.manifest").write_bytes(
        (cli_run / "run" / "model.dsaa1.manifest").read_bytes())
    # the file ends two bytes into the first record's name length
    (run / "model.dsaa1").write_bytes(
        (cli_run / "run" / "model.dsaa1").read_bytes()[:7])
    frame = load_manifest(cli_run / "data").ids()[0]
    assert main(["drive", "--checkpoint", str(run),
                 "--dataset", str(cli_run / "data"), "--frames", frame,
                 "--mode", "zero", "--out", str(cli_run / "drive_cut")]) == 2
    assert "truncated" in capsys.readouterr().err


def test_drive_on_checkpoint_missing_an_array_exits_2(cli_run, capsys):
    run = cli_run / "missing_array"
    shutil.copytree(cli_run / "run", run)
    arrays = dc.load_arrays(run / "model.dsaa1")
    name = next(iter(arrays))
    del arrays[name]
    dc.save_arrays(run / "model.dsaa1", arrays)
    frame = load_manifest(cli_run / "data").ids()[0]
    out = cli_run / "drive_missing_array"
    assert main(["drive", "--checkpoint", str(run),
                 "--dataset", str(cli_run / "data"), "--frames", frame,
                 "--mode", "zero", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint is missing arrays" in err and repr(name) in err
    assert not out.exists()


# ------------------------------------------------- inputs rejected with exit 2

def test_manifest_with_unknown_frame_split_is_rejected(cli_run, capsys):
    # "tran" for "train": loaded as is, no frame would be in the train split
    # and training would fall back to every standard frame, test ones too
    data = cli_run / "data_retagged"
    shutil.copytree(cli_run / "data", data)
    text = (data / "manifest.txt").read_text()
    assert text.count(" = standard train\n") == 2
    (data / "manifest.txt").write_text(
        text.replace(" = standard train\n", " = standard tran\n"))
    with pytest.raises(ValueError, match=r"frame\.\d+: unknown group or split"):
        load_manifest(data)
    assert main(["train", "--config", str(cli_run / "train.cfg"),
                 "--dataset", str(data), "--out", str(cli_run / "retagged"),
                 "--seed", "1", "--iters", "1"]) == 2
    assert "'tran'" in capsys.readouterr().err


def test_manifest_with_novel_frames_and_no_split_seed_is_rejected(cli_run,
                                                                 capsys):
    # novel frames are drawn under the split seed; without it their
    # factors are unknown
    data = cli_run / "data_seedless"
    shutil.copytree(cli_run / "data", data)
    text = (data / "manifest.txt").read_text()
    assert "\nsplit.seed = 4\n" in text
    (data / "manifest.txt").write_text(text.replace("\nsplit.seed = 4\n", "\n"))
    with pytest.raises(ValueError, match="no split.seed"):
        load_manifest(data)
    assert main(["drive", "--checkpoint", str(cli_run / "run"), "--dataset",
                 str(data), "--frames", "novel0000", "--mode", "zero",
                 "--out", str(cli_run / "seedless_drive")]) == 2
    assert "no split.seed" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--steps", "-1"], ["--lr", "0"],
                                   ["--lr", "inf"]])
def test_drive_fit_rejects_bad_steps_and_lr(cli_run, capsys, extra):
    frame = load_manifest(cli_run / "data").ids()[0]
    out = cli_run / "drive_bad_fit"
    assert main(["drive", "--checkpoint", str(cli_run / "run"),
                 "--dataset", str(cli_run / "data"), "--frames", frame,
                 "--mode", "fit", "--out", str(out), *extra]) == 2
    assert "fit mode needs" in capsys.readouterr().err
    assert not out.exists()


def test_drive_rejects_repeated_frames(cli_run, capsys):
    frame = load_manifest(cli_run / "data").ids()[0]
    out = cli_run / "drive_repeated"
    assert main(["drive", "--checkpoint", str(cli_run / "run"),
                 "--dataset", str(cli_run / "data"),
                 "--frames", f"{frame},{frame}", "--out", str(out)]) == 2
    assert "repeated frame ids" in capsys.readouterr().err
    assert not out.exists()


def test_heatmap_rejects_zero_perturbations(cli_run, capsys):
    out = cli_run / "heat_zero"
    assert main(["heatmap", "--checkpoint", str(cli_run / "run"),
                 "--dataset", str(cli_run / "data"), "--out", str(out),
                 "--indices", "0", "--n-perturb", "0"]) == 2
    assert "n_perturb" in capsys.readouterr().err
    assert not out.exists()


def test_heatmap_checks_indices_before_writing(cli_run, capsys):
    out = cli_run / "heat_range"
    assert main(["heatmap", "--checkpoint", str(cli_run / "run"),
                 "--dataset", str(cli_run / "data"), "--out", str(out),
                 "--indices", "0,99", "--n-perturb", "2"]) == 2
    assert "signal index 99 out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("indices, message", [
    (",", "no signal indices requested"),
    ("0,0", "repeated signal indices in [0, 0]")])
def test_heatmap_refuses_empty_or_repeated_indices(cli_run, tmp_path, capsys,
                                                   indices, message):
    out = tmp_path / "heat"
    assert main(["heatmap", "--checkpoint", str(cli_run / "run"),
                 "--dataset", str(cli_run / "data"), "--out", str(out),
                 "--indices", indices, "--n-perturb", "2"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["out", "dataset"])
def test_drive_path_errors_exit_2(cli_run, tmp_path, capsys, monkeypatch,
                                  where):
    # a file where a directory belongs
    path = tmp_path / "a_file"
    path.write_text("")
    paths = {"out": str(tmp_path / "drive"), "dataset": str(cli_run / "data"),
             where: str(path)}
    frame = load_manifest(cli_run / "data").ids()[0]
    renders = []
    monkeypatch.setattr(evaluate, "rasterize",
                        lambda *a, **k: renders.append(1))
    assert main(["drive", "--checkpoint", str(cli_run / "run"),
                 "--dataset", paths["dataset"], "--frames", frame,
                 "--out", paths["out"]]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")
    assert path.read_text() == ""
    assert not renders      # refused before any frame is rendered


@pytest.mark.parametrize("line", ["loss.lam_kl = nan", "loss.lam_pc = inf"])
def test_train_rejects_nonfinite_settings(cli_run, tmp_path, capsys, line):
    cfg = tmp_path / "train.cfg"
    cfg.write_text((cli_run / "train.cfg").read_text() + line + "\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--dataset",
                 str(cli_run / "data"), "--out", str(out), "--seed", "1",
                 "--iters", "2"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


_FACE_MISMATCH = "model reads 4 face scalars; the dataset supplies 2"


@pytest.fixture(scope="module")
def two_face_data(tmp_path_factory):
    """An unsplit 2-frame dataset whose frames carry 2 face scalars; the
    model default reads 4."""
    root = tmp_path_factory.mktemp("two_face")
    (root / "data.cfg").write_text("data.image_size = 32\ndata.n_face = 2\n")
    assert main(["gen-data", "--config", str(root / "data.cfg"), "--out",
                 str(root / "data"), "--frames", "2", "--test-fraction", "0",
                 "--seed", "4"]) == 0
    return root / "data"


@pytest.mark.parametrize("refusal", ["dataset", "batch", "n_face", "kl"])
def test_refused_train_leaves_no_run_directory(cli_run, two_face_data,
                                               tmp_path, capsys, refusal):
    # the split gives 2 training frames, too few for a batch of 3; a
    # latent-free model has no KL term to weigh
    cfg = tmp_path / "train.cfg"
    text = (cli_run / "train.cfg").read_text()
    cfg.write_text({
        "batch": text.replace("train.batch = 2", "train.batch = 3"),
        "kl": text + "model.use_latent = false\nloss.lam_dis = 0.0\n"
                     "loss.lam_pc = 0.0\n"}.get(refusal, text))
    data, message = {
        "dataset": (tmp_path / "nosuch", "nosuch"),
        "batch": (cli_run / "data", "batch size 3"),
        "n_face": (two_face_data, _FACE_MISMATCH),
        "kl": (cli_run / "data", "latent-free model cannot carry KL")}[refusal]
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--dataset", str(data),
                 "--out", str(out), "--seed", "1", "--iters", "2"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_drive_refuses_a_model_of_another_face_count(cli_run, two_face_data,
                                                     tmp_path, capsys):
    out = tmp_path / "drive"
    assert main(["drive", "--checkpoint", str(cli_run / "run"), "--dataset",
                 str(two_face_data), "--frames", "000000", "--out",
                 str(out)]) == 2
    assert _FACE_MISMATCH in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["drive", "heatmap"])
def test_frame_missing_from_manifest_is_refused(cli_run, tmp_path, capsys,
                                                command):
    # regenerating a dataset with fewer frames in place leaves the old
    # frames' directories behind; their ground truth is stale
    data = tmp_path / "data"
    for n in ("4", "2"):
        assert main(["gen-data", "--config", str(cli_run / "data.cfg"),
                     "--out", str(data), "--frames", n, "--test-fraction",
                     "0", "--seed", "4"]) == 0
    assert (data / "frames" / "000003").is_dir()
    extra = {"drive": ["--frames", "000003"],
             "heatmap": ["--frame", "000003", "--indices", "0"]}[command]
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(cli_run / "run"), "--dataset",
                 str(data), "--out", str(out), *extra]) == 2
    assert "'000003' is not in the dataset manifest" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_gen_data_rejects_negative_test_fraction(tmp_path, capsys, where):
    cfg = tmp_path / "data.cfg"
    cfg.write_text("data.image_size = 32\n" + (
        "data.test_fraction = -0.5\n" if where == "config" else ""))
    extra = ["--test-fraction", "-0.5"] if where == "flag" else []
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out),
                 "--frames", "2", *extra]) == 2
    assert "test fraction" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fraction, message", [
    ("0.1", "degenerate split: 0 test frames of 3"),
    ("1", "test_fraction must lie in (0, 1)"),
    ("inf", "test_fraction must lie in (0, 1)")])
def test_gen_data_refuses_bad_split_before_writing(tmp_path, capsys, fraction,
                                                   message):
    cfg = tmp_path / "data.cfg"
    cfg.write_text("data.image_size = 32\n")
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out),
                 "--frames", "3", "--test-fraction", fraction]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()
    assert not out.exists()
