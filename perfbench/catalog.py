"""Metric catalogue: every metric the benchmark reports, with its unit,
its direction, and (for per-layer metrics) the end-to-end metric and
workload it is expected to move.

BENCHMARK.json at the repository root is generated from this file with
``python3 perfbench/run.py --write-spec``; run.py refuses to print a
result whose metric names disagree with it.
"""

from __future__ import annotations

WORKLOADS = (
    ("train", "times dsaa.harness.train at batch 8, phase-1 mesh steps then "
              "phase-2 image steps; data and AO built in setup, so occlusion "
              "is bypassed while timed"),
    ("drive", "times dsaa.harness.drive zero (forward-only, writes renders) and "
              "fit (backward to z) on frames of checkpoints trained briefly "
              "in setup"),
)

RUN_SECONDS = 15

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("gen_frames_per_s", "frames/s", "higher", 0.2),
    ("ao_frame_ms_p50", "ms", "lower", 0.2),
    ("mesh_step_ms_p50", "ms", "lower", 0.2),
    ("image_step_ms_p50", "ms", "lower", 0.24),
    ("drive_frame_ms_p50", "ms", "lower", 0.2),
    ("drive_frame_ms_tail", "ms", "lower", 0.2),
    ("fit_frame_ms_p50", "ms", "lower", 0.24),
    ("drive_err", "L1x255", "lower", 0.2),
)

# Spans recorded by the traced run: span name -> (end-to-end metric it
# should move, workloads where the span does its work; "setup" marks
# work the traced run sees in the one setup it traces).  Each yields
# <span>_ms (time per call) and <span>_self_ms (minus child spans).
SPANS = {
    "synthdata.render_views": ("gen_frames_per_s", "train, drive (setup)"),
    "synthdata.frame_mesh": ("gen_frames_per_s", "train, drive (setup)"),
    "synthdata.frame_texture": ("gen_frames_per_s", "train, drive (setup)"),
    "body.fk": ("gen_frames_per_s, mesh_step_ms_p50", "train, drive"),
    "body.lbs": ("gen_frames_per_s, mesh_step_ms_p50", "train, drive"),
    "imgio.write": ("gen_frames_per_s, drive_frame_ms_p50", "drive, train (setup)"),
    "imgio.read": ("setup_s, first steps", "train, drive"),
    "harness.frame_load": ("setup_s, first steps", "train, drive"),
    "occlusion.compute_ao": ("ao_frame_ms_p50", "train, drive (setup)"),
    "occlusion.grid_build": ("ao_frame_ms_p50", "train, drive (setup)"),
    "occlusion.any_hit": ("ao_frame_ms_p50", "train, drive (setup)"),
    "renderer.rasterize_grad": ("image_step_ms_p50, fit_frame_ms_p50",
                                "train, drive"),
    "renderer.rasterize_nograd": ("gen_frames_per_s, drive_frame_ms_p50",
                                  "drive, train (setup)"),
    "renderer.losses": ("mesh_step_ms_p50, image_step_ms_p50", "train, drive (setup)"),
    "diffcore.backward": ("mesh_step_ms_p50, image_step_ms_p50, "
                          "fit_frame_ms_p50", "train, drive"),
    "diffcore.adam_step": ("mesh_step_ms_p50", "train"),
    "diffcore.save_arrays": ("wall_s", "train"),
    "avatar.encode": ("mesh_step_ms_p50", "train"),
    "avatar.decode": ("mesh_step_ms_p50, drive_frame_ms_p50", "train, drive"),
    "avatar.shadow": ("mesh_step_ms_p50, drive_frame_ms_p50", "train, drive"),
    "avatar.compose": ("mesh_step_ms_p50, drive_frame_ms_p50", "train, drive"),
    "conditioning.project": ("mesh_step_ms_p50, drive_frame_ms_p50",
                             "train, drive"),
    "disentangle.kl": ("image_step_ms_p50", "train"),
    "disentangle.dis": ("image_step_ms_p50", "train"),
    "disentangle.pc": ("image_step_ms_p50", "train"),
    "disentangle.critic": ("image_step_ms_p50", "train"),
    "harness.step_phase1": ("mesh_step_ms_p50", "train"),
    "harness.step_phase2": ("image_step_ms_p50", "train"),
}

# Work counted at the same boundaries: name -> (moves, workloads).
COUNTS = {
    "imgio.bytes_written": ("gen_frames_per_s, drive_frame_ms_p50",
                            "drive, train (setup)"),
    "occlusion.calls": ("ao_frame_ms_p50; none while timed", "train, drive (setup)"),
    "occlusion.rays": ("ao_frame_ms_p50", "train, drive (setup)"),
    "renderer.rasterize_calls": ("image_step_ms_p50, fit_frame_ms_p50",
                                 "train, drive"),
    "renderer.phase1_rasterize_calls": ("mesh_step_ms_p50; always 0",
                                        "train"),
    "diffcore.save_bytes": ("wall_s", "train"),
}

# Forward and backward timed apart, one block at a time, on inputs taken
# from the workload's first model call: probe -> (moves, workloads).
PROBES = {
    "renderer.raster": ("image_step_ms_p50, fit_frame_ms_p50",
                        "train, drive"),
    "avatar.encoder": ("mesh_step_ms_p50", "train"),
    "avatar.decoder": ("mesh_step_ms_p50, drive_frame_ms_p50", "train, drive"),
    "avatar.shadow": ("mesh_step_ms_p50, drive_frame_ms_p50", "train, drive"),
    "avatar.compose": ("mesh_step_ms_p50, drive_frame_ms_p50", "train, drive"),
}

# Layers whose self time is split out of each training phase's step time.
SHARE_LAYERS = ("renderer", "avatar", "conditioning", "diffcore",
                "disentangle", "body", "harness")


def per_layer():
    """[(name, unit, better, moves, workloads)] in report order."""
    rows = []
    for span, (moves, where) in SPANS.items():
        rows.append((f"{span}_ms", "ms", "lower", moves, where))
        rows.append((f"{span}_self_ms", "ms", "lower", moves, where))
    for name, (moves, where) in COUNTS.items():
        unit = "bytes" if "bytes" in name else "count"
        rows.append((name, unit, "lower", moves, where))
    for probe, (moves, where) in PROBES.items():
        rows.append((f"{probe}_fwd_ms", "ms", "lower", moves, where))
        rows.append((f"{probe}_bwd_ms", "ms", "lower", moves, where))
    for phase, moves in ((1, "mesh_step_ms_p50"), (2, "image_step_ms_p50")):
        for layer in SHARE_LAYERS:
            rows.append((f"share.phase{phase}.{layer}", "%", "lower", moves,
                         "train"))
    rows.append(("trace.overhead_s", "s", "lower", "wall_s (traced - untraced)",
                 "all"))
    rows.append(("trace.overhead_pct", "%", "lower", "wall_s (traced / untraced)",
                 "all"))
    return rows


def spec() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in per_layer()],
    }
