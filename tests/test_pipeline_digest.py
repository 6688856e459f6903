"""tools/pipeline_digest.py: its toy CLI pipeline runs on the working tree
and hashes every kind of file it is meant to compare, the parent tree
runs its own pipeline, and the exit code tells whether any file
differs."""

from pathlib import Path

import pytest

from dsaa.harness import VARIANTS

_ROOT = Path(__file__).resolve().parents[1]


def test_digest_of_the_working_tree_covers_every_output(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))
    import pipeline_digest

    digests = pipeline_digest.digest_tree(_ROOT, tmp_path / "run")
    expected = ["data/manifest.txt", "data/ao8.dsaa1",
                "data/frames/novel0000/cam1.ppm", "heatmap/heatmap_03_pose_spine_rx.pgm",
                "report/report.kv", "report/report.txt"]
    for v in pipeline_digest.VARIANTS:
        expected += [f"runs/{v}/{name}" for name in
                     ("config.txt", "model.dsaa1", "trainer.dsaa1", "train.log")]
    for mode in ("zero", "sample", "fit"):
        expected += [f"drive/{mode}/drive.kv", f"drive/{mode}/novel0000_cam0.ppm"]
    missing = [name for name in expected if name not in digests]
    assert not missing
    # 6 test frames: the report scores HSIC, so the digest compares it
    report = (tmp_path / "run" / "report" / "report.kv").read_text()
    for key in ("hsic.ours", "hsic_p.ours"):
        assert f"\n{key} = " in f"\n{report}", key
    assert all(len(h) == 64 for h in digests.values())
    assert not [name for name in digests if name in pipeline_digest.INPUTS]


_SAME = {"data/manifest.txt": "0" * 64, "report/report.kv": "1" * 64}


@pytest.mark.parametrize("change, code", [
    (_SAME, 0),
    (dict(_SAME, **{"report/report.kv": "2" * 64}), 1),
    (dict(_SAME, **{"report/extra.txt": "3" * 64}), 1),
], ids=["identical", "hash-differs", "one-side-only"])
def test_exit_code_says_whether_any_file_differs(monkeypatch, capsys, change, code):
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))
    import pipeline_digest

    digests = {"parent": _SAME, "change": change}
    monkeypatch.setattr(pipeline_digest, "_export", lambda ref, dest: None)
    monkeypatch.setattr(pipeline_digest, "load_plan", lambda tree: None)
    monkeypatch.setattr(pipeline_digest, "digest_tree",
                        lambda tree, workdir, plan=None: digests[workdir.name])
    assert pipeline_digest.main(["--parent", "HEAD"]) == code
    assert f"files written, {code} differ" in capsys.readouterr().out


_PARENT_TOOL = """\
INPUTS = {"parent.cfg": "train.batch = 2\\n"}


def pipeline():
    return [[["gen-data", "--parent-flag"]], [["report", "--run=a=b"]]]
"""


def test_parent_tree_runs_its_own_pipeline(tmp_path, monkeypatch, capsys):
    # a parent whose CLI arguments or config keys differ still runs, with
    # the steps and inputs of its own tools/pipeline_digest.py
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))
    import pipeline_digest

    def export(ref, dest):
        (dest / "tools").mkdir(parents=True)
        (dest / "tools" / "pipeline_digest.py").write_text(_PARENT_TOOL)

    steps = {"parent": [], "change": []}

    def run_step(argv, workdir, env, tree):
        steps[workdir.name].append(argv)
        assert env["PYTHONPATH"] == str(Path(tree).resolve() / "src")

    monkeypatch.setattr(pipeline_digest, "_export", export)
    monkeypatch.setattr(pipeline_digest, "_run_step", run_step)
    monkeypatch.chdir(_ROOT)
    assert pipeline_digest.main(["--parent", "HEAD"]) == 0
    assert steps["parent"] == [["gen-data", "--parent-flag"],
                               ["report", "--run=a=b"]]
    assert steps["change"] == [argv for stage in pipeline_digest.pipeline()
                               for argv in stage]
    assert "0 files written, 0 differ" in capsys.readouterr().out


def test_digest_trains_every_report_variant(monkeypatch):
    # the tool keeps its own copy of the names, so it runs on a parent
    # tree whose harness it cannot import
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))
    import pipeline_digest

    assert pipeline_digest.VARIANTS == tuple(VARIANTS)
