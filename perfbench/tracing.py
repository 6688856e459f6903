"""Span tracing from outside the library.

Each traced callable is replaced, at every name a ``dsaa`` module binds
it under, by a wrapper that records a span (name, start, end, parent) in
memory. Several callers import by value (``dsaa.harness.trainer``
binds ``rasterize`` and ``kl_loss``, ``dsaa.avatar.model`` binds
``compose``), so patching only the defining module would miss them; the
tracer scans every loaded ``dsaa`` module for the original object
instead. Methods are patched on their class. Spans are kept in a list
and reduced once the traced section ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

from catalog import COUNTS, SHARE_LAYERS, SPANS

# call sites that import by value and must be covered by the patch
REQUIRED_SITES = (
    "dsaa.harness.trainer.rasterize",
    "dsaa.harness.evaluate.rasterize",
    "dsaa.synthdata.generate.rasterize",
    "dsaa.avatar.model.compose",
    "dsaa.harness.data.compute_ao",
    "dsaa.harness.trainer.kl_loss",
)


def _bytes_of(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans = []        # [name, t0, t1, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        self.active = False
        self.first_signal = None   # (frame id, camera) of the first model call
        self._patches = []     # (owner, attribute, original)
        self.sites = set()

    # ------------------------------------------------------------ recording

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrapper(self, fn, name_of, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs) if self.active else None
            if name is None:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    # ------------------------------------------------------------- patching

    def _patch_function(self, module, attr, name_of, after=None):
        orig = getattr(importlib.import_module(module), attr)
        wrapped = self._wrapper(orig, name_of, after)
        for modname, mod in list(sys.modules.items()):
            if modname != "dsaa" and not modname.startswith("dsaa."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)
                    self.sites.add(f"{modname}.{key}")

    def _patch_method(self, module, cls, attr, name_of, after=None):
        owner = getattr(importlib.import_module(module), cls)
        orig = owner.__dict__[attr]
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self._wrapper(orig, name_of, after))
        self.sites.add(f"{module}.{cls}.{attr}")

    def install(self):
        import dsaa.diffcore as dc

        def fixed(name):
            return lambda args, kwargs: name

        def wrote(args, kwargs, out):
            self.counts["imgio.bytes_written"] += _bytes_of(args[0])

        def saved(args, kwargs, out):
            self.counts["diffcore.save_bytes"] += _bytes_of(args[0])

        def raster_name(args, kwargs):
            return ("renderer.rasterize_grad" if dc.grad_enabled()
                    else "renderer.rasterize_nograd")

        def raster_count(args, kwargs, out):
            self.counts["renderer.rasterize_calls"] += 1
            if any(self.spans[i][0] == "harness.step_phase1"
                   for i in self.stack):
                self.counts["renderer.phase1_rasterize_calls"] += 1

        def step_name(args, kwargs):
            cfg, i = args[0], args[-1]
            return f"harness.step_phase{1 if i < cfg.phase1 else 2}"

        def frame_name(args, kwargs):
            data, frame_id = args[0], args[1]
            return None if frame_id in data._frames else "harness.frame_load"

        def signal_seen(args, kwargs):
            if self.first_signal is None:
                self.first_signal = (args[1], int(args[2]))
            return None

        def occlusion(args, kwargs, out):
            self.counts["occlusion.calls"] += 1

        def rays(args, kwargs, out):
            self.counts["occlusion.calls"] += 1
            self.counts["occlusion.rays"] += len(args[1])

        fn = self._patch_function
        fn("dsaa.synthdata.generate", "render_views",
           fixed("synthdata.render_views"))
        fn("dsaa.synthdata.generate", "frame_mesh",
           fixed("synthdata.frame_mesh"))
        fn("dsaa.synthdata.generate", "frame_texture",
           fixed("synthdata.frame_texture"))
        fn("dsaa.body.skeleton", "forward_kinematics", fixed("body.fk"))
        fn("dsaa.body.lbs", "lbs_apply", fixed("body.lbs"))
        for attr in ("write_ppm", "write_pgm"):
            fn("dsaa.imgio", attr, fixed("imgio.write"), wrote)
        for attr in ("read_ppm", "read_pgm"):
            fn("dsaa.imgio", attr, fixed("imgio.read"))
        fn("dsaa.occlusion.ao", "compute_ao", fixed("occlusion.compute_ao"),
           occlusion)
        fn("dsaa.renderer.raster", "rasterize", raster_name, raster_count)
        fn("dsaa.renderer.losses", "losses", fixed("renderer.losses"))
        fn("dsaa.diffcore.tensor", "backward", fixed("diffcore.backward"))
        fn("dsaa.diffcore.checkpoint", "save_arrays",
           fixed("diffcore.save_arrays"), saved)
        fn("dsaa.avatar.compose", "compose", fixed("avatar.compose"))
        fn("dsaa.disentangle.losses", "kl_loss", fixed("disentangle.kl"))
        fn("dsaa.disentangle.losses", "adversarial_dis_loss",
           fixed("disentangle.dis"))
        fn("dsaa.disentangle.losses", "perturbation_loss",
           fixed("disentangle.pc"))
        fn("dsaa.disentangle.losses", "mine_loss", fixed("disentangle.critic"))
        fn("dsaa.harness.trainer", "_step", step_name)

        meth = self._patch_method
        meth("dsaa.occlusion.ao", "UniformGrid", "__init__",
             fixed("occlusion.grid_build"), occlusion)
        meth("dsaa.occlusion.ao", "UniformGrid", "any_hit",
             fixed("occlusion.any_hit"), rays)
        meth("dsaa.diffcore.adam", "Adam", "step", fixed("diffcore.adam_step"))
        meth("dsaa.avatar.encoder", "GeometryEncoder", "__call__",
             fixed("avatar.encode"))
        meth("dsaa.avatar.decoder", "AvatarDecoder", "__call__",
             fixed("avatar.decode"))
        meth("dsaa.avatar.shadow", "ShadowNet", "__call__",
             fixed("avatar.shadow"))
        meth("dsaa.conditioning.encode", "LocalizedProjector", "__call__",
             fixed("conditioning.project"))
        meth("dsaa.harness.data", "TrainData", "frame", frame_name)
        meth("dsaa.harness.data", "TrainData", "signal", signal_seen)

        missing = [s for s in REQUIRED_SITES if s not in self.sites]
        if missing:
            raise RuntimeError(f"tracer did not reach {missing}")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ reduction

    def names_between(self, t0, t1) -> dict:
        """{span name: calls} for spans that started inside [t0, t1]."""
        calls = defaultdict(int)
        for name, start, _, _ in self.spans:
            if t0 <= start <= t1:
                calls[name] += 1
        return dict(sorted(calls.items()))

    def per_layer(self) -> dict:
        """Time per call (total and self) for every span name, the work
        counters, and each training phase's step time split by layer."""
        if self.stack:
            raise RuntimeError("trace reduced while spans are open")
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        total = defaultdict(float)
        selft = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            selft[name] += t1 - t0 - child[i]
        out = {}
        for name in SPANS:
            n = calls[name]
            out[f"{name}_ms"] = 1e3 * total[name] / n if n else 0.0
            out[f"{name}_self_ms"] = 1e3 * selft[name] / n if n else 0.0
        for name in COUNTS:
            out[name] = self.counts[name]
        out.update(self._shares(child))
        return out

    def _shares(self, child) -> dict:
        """Self time inside each phase's steps, by layer, as % of the
        phase's step time; the step span's own self time is 'harness'."""
        phase_of = {}   # span index -> training phase of its step ancestor
        by_layer = {1: defaultdict(float), 2: defaultdict(float)}
        step_time = {1: 0.0, 2: 0.0}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if name.startswith("harness.step_phase"):
                phase_of[i] = int(name[-1])
                step_time[phase_of[i]] += t1 - t0
            elif parent in phase_of:
                phase_of[i] = phase_of[parent]
            else:
                continue
            layer = name.split(".", 1)[0]
            by_layer[phase_of[i]][layer] += t1 - t0 - child[i]
        out = {}
        for phase in (1, 2):
            for layer in SHARE_LAYERS:
                t = step_time[phase]
                out[f"share.phase{phase}.{layer}"] = (
                    100.0 * by_layer[phase][layer] / t if t else 0.0)
        return out
