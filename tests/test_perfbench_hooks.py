"""The benchmark's span tracer still finds every library function it
wraps, and its per-block probes still run, so renaming or deleting a
traced function or changing a block's call fails here rather than only
inside a benchmark run. A traced run of one phase-1 and one phase-2
step also shows which blocks each phase runs."""

import math
import sys
from pathlib import Path

import dsaa.harness  # noqa: F401  (loads every module the tracer scans)
import dsaa.synthdata as sd
from dsaa.avatar import AvatarConfig, AvatarModel
from dsaa.harness import TrainConfig, TrainData, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_reaches_required_sites(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert set(tracing.REQUIRED_SITES) <= tracer.sites
    finally:
        tracer.uninstall()
        for name in ("tracing", "catalog"):
            sys.modules.pop(name, None)


def test_block_probes_run(tmp_path, monkeypatch):
    # the traced run's per-block forward/backward probes, on a 2-frame
    # 32 px dataset and a geo_res 16 model
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes

    sd.generate_dataset(sd.default_scene(image_size=32, seed=3), tmp_path, 2)
    cfg = AvatarConfig(geo_res=16)
    data = TrainData(tmp_path, geo_res=cfg.geo_res, ao_res=cfg.shadow_res)
    model = AvatarModel(data.template, data.skeleton, cfg, seed=0)
    try:
        out = probes.probe_blocks(model, data, data.ids()[0], 0, reps=1)
    finally:
        sys.modules.pop("probes", None)
    blocks = ("renderer.raster", "avatar.encoder", "avatar.decoder",
              "avatar.shadow", "avatar.compose")
    keys = {f"{b}_{d}_ms" for b in blocks for d in ("fwd", "bwd")}
    assert set(out) == keys
    assert all(math.isfinite(v) and v >= 0.0 for v in out.values())


def test_traced_steps_run_what_each_phase_reads(tmp_path, monkeypatch):
    # phase 1 reads posed geometry only: it decodes, but runs neither the
    # shadow net nor the rasterizer; phase 2 adds the perturbation term
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    sd.generate_dataset(sd.default_scene(image_size=32, seed=3),
                        tmp_path / "data", 2)
    cfg = TrainConfig(dataset=str(tmp_path / "data"), out=str(tmp_path / "run"),
                      iters=2, phase1=1, batch=2,
                      model=AvatarConfig(geo_res=16))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.active = True
        train(cfg)
        tracer.active = False
    finally:
        tracer.uninstall()
        for name in ("tracing", "catalog"):
            sys.modules.pop(name, None)

    inside = {1: set(), 2: set()}
    for name, _, _, parent in tracer.spans:
        while parent >= 0 and not tracer.spans[parent][0].startswith(
                "harness.step_phase"):
            parent = tracer.spans[parent][3]
        if parent >= 0:
            inside[int(tracer.spans[parent][0][-1])].add(name)
    assert "avatar.decode" in inside[1] and "avatar.decode" in inside[2]
    assert "avatar.shadow" not in inside[1]
    assert not any(n.startswith("renderer.rasterize") for n in inside[1])
    assert tracer.counts["renderer.phase1_rasterize_calls"] == 0
    assert "disentangle.pc" in inside[2]
    assert "avatar.shadow" in inside[2]
