"""Benchmark entry point.

    python3 perfbench/run.py --workload {train,drive} --seed N \
        --seconds S --trace {0,1}

Run from the repository root: the library is imported from ./src and
scratch files go to ./.perfbench_work (removed on exit). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; --trace 0 reports the end-to-end metrics and
--trace 1 the per-layer ones. The line before it (``record {...}``)
holds what is needed to reproduce the run.

    python3 perfbench/run.py --write-spec   # regenerate ./BENCHMARK.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> int:
    """Cap BLAS pools at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        os.environ.setdefault(var, str(nproc))
    return nproc


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("train", "drive"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from perfbench/catalog.py")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _record(args, root, src, nproc, sizes, notes, extra):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": nproc,
           "blas_threads": {v: os.environ.get(v) for v in _BLAS_VARS},
           "numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "cpu": _cpu_model(), "python": platform.python_version(),
           "commit": _commit(root), "src_sha256": _source_hash(src),
           "sizes": sizes}
    rec.update(notes)
    rec.update(extra)
    return rec


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(args, work: Path):
    """Returns (samples, metrics, sizes, notes, extra)."""
    import workloads as wl
    from speed import SpeedSampler

    clock = SpeedSampler()
    clock.start()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return _measure(args, work, wl, clock, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.stop()


def _measure(args, work, wl, clock, tracer):
    now = time.perf_counter
    w = wl.WORKLOADS[args.workload](args.seconds)
    s = wl.Samples(clock)
    # the traced run traces one setup (the stages before the timed one),
    # then times three passes: untraced (warm-up and checks), traced, and
    # untraced again to compare against
    if tracer is not None:
        tracer.active = True
    states, setups, raw = [], [], {"setup_raw_s": []}
    for k in range(1 if tracer else w.setup_repeats):
        t = now()
        states.append(w.setup(s, work / f"setup{k}", args.seed, k))
        t1 = now()
        setups.append(clock.seconds(t, t1))
        raw["setup_raw_s"].append(round(clock.raw(t, t1), 4))
    if tracer is not None:
        tracer.active = False
    t = now()
    out = w.timed(s, states, work / "pass0")
    t1 = now()
    wall = clock.seconds(t, t1)
    raw["wall_raw_s"] = round(clock.raw(t, t1), 4)
    w.check(s, states, out)

    if tracer is None:
        t = now()
        w.tail(s, states, out, work / "tail")
        tail_s = now() - t
        metrics, notes = wl.end_to_end(s, setups, wall)
        extra = {"peak_rss_mb": round(_peak_rss_mb(), 1),
                 "loss_final": s.losses,
                 "drive_err": metrics["drive_err"],
                 "tail_s": round(tail_s, 3), **raw,
                 "speed_samples": len(clock.took)}
        return s, metrics, w.sizes(), notes, extra

    from probes import probe_blocks

    replay = wl.Samples(clock)
    tracer.active = True
    t = now()
    out2 = w.timed(replay, states, work / "pass1")
    t1 = now()
    tracer.active = False
    traced = clock.seconds(t, t1)
    timed_spans = tracer.names_between(t, t1)
    t = now()
    w.timed(wl.Samples(clock), states, work / "pass2")
    untraced = clock.seconds(t, now())
    s.ops += replay.ops
    s.checks += [c for c in replay.checks if not c[1]]
    s.check("trace: traced pass replays the untraced pass bit-identically",
            w.replay_key(out) == w.replay_key(out2))
    n_occ = sum(n for name, n in timed_spans.items()
                if name.startswith("occlusion."))
    s.check(f"trace: no occlusion work in timed {args.workload}",
            n_occ == 0, n_occ)
    metrics = tracer.per_layer()
    s.check("trace: no rasterize call inside a phase-1 step",
            metrics["renderer.phase1_rasterize_calls"] == 0,
            metrics["renderer.phase1_rasterize_calls"])
    s.check("trace: phase-2 steps do rasterize",
            metrics["share.phase2.renderer"] > 0)
    model, data = w.probe_inputs(states, out)
    fid, cam = tracer.first_signal or (data.ids()[0], 0)
    metrics.update(probe_blocks(model, data, fid, cam))
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    extra = {"untraced_wall_s": round(untraced, 4),
             "traced_wall_s": round(traced, 4),
             "timed_span_calls": timed_spans,
             "probe_inputs": {"frame": fid, "camera": cam},
             "patched_sites": len(tracer.sites), **raw}
    return s, metrics, w.sizes(), {}, extra


def main(argv=None) -> int:
    args = _parse(argv)
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import catalog

    root = Path.cwd()
    if args.write_spec:
        (root / "BENCHMARK.json").write_text(
            json.dumps(catalog.spec(), indent=2) + "\n")
        return 0
    spec_path = root / "BENCHMARK.json"
    if spec_path.exists() and json.loads(spec_path.read_text()) != catalog.spec():
        print("error: BENCHMARK.json is out of date with perfbench/catalog.py; "
              "rerun with --write-spec", file=sys.stderr)
        return 2
    src = root / "src"
    if not (src / "dsaa" / "__init__.py").is_file():
        print(f"error: no dsaa sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = catalog.RUN_SECONDS
    nproc = _cap_blas_threads()
    sys.path.insert(0, str(src))

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        s, metrics, sizes, notes, extra = _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    rows = (catalog.per_layer() if args.trace else
            [(n, u, b, "", "") for n, u, b, _ in catalog.END_TO_END])
    units = {n: u for n, u, _, _, _ in rows}
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names disagree with the catalogue: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for name, unit, _, moves, where in rows:
        tag = f" -> {moves} [{where}]" if moves else ""
        print(f"{name:42s} {metrics[name]:16.4f} {unit}{tag}")
    failed = [c for c in s.checks if not c[1]]
    attempted = s.ops + len(s.checks)
    for name, ok, detail in s.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if not ok and detail else ""))
    print(f"fail_frac {len(failed)}/{attempted}")
    print("record " + json.dumps(_record(args, root, src, nproc, sizes, notes,
                                         extra), sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]}
                    for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
