"""Forward and backward timed apart for single model blocks.

One ``dc.backward`` over a whole step cannot be split by layer from
outside the tape, so each block is re-run alone on inputs taken from the
workload's first model call: build the block's graph from fresh leaves
(forward), reduce it to a scalar, and back-propagate (backward). The
scalar reduction is a couple of cheap ``sum_`` nodes and is counted in
the forward time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import dsaa.diffcore as dc
from dsaa.avatar import compose
from dsaa.renderer import RasterConfig, rasterize


def _leaf(x) -> dc.Tensor:
    data = x.data if isinstance(x, dc.Tensor) else x
    return dc.Tensor(np.array(data, copy=True), requires_grad=True)


def _total(*tensors) -> dc.Tensor:
    out = dc.sum_(tensors[0])
    for t in tensors[1:]:
        out = dc.add(out, dc.sum_(t))
    return out


def probe_blocks(model, data, frame_id: str, cam: int, reps: int = 5) -> dict:
    """Median forward and backward ms per block: the rasterizer on one
    view, and the encoder, decoder (with its conditioning projectors),
    shadow and compose blocks of `model`."""
    sig = data.signal(frame_id, cam)
    pos = data.pos_map(frame_id)
    ao = data.ao(frame_id)
    raster_cfg = RasterConfig(sigma_r=data.spec.sigma_r,
                              gamma=data.spec.gamma_r)
    with dc.no_grad():
        z = model.encode(pos).mu.data
        disp, tex = model.decode(sig, z)
        gain = model.shadow_gain(ao)
        out = compose(sig.theta, disp, tex, gain, model.template,
                      model.skeleton)
    faces, uvs = data.template.faces, data.template.uvs
    camera = data.cameras[cam]

    def encoder():
        dist = model.encode(pos)
        return _total(dist.mu, dist.sigma)

    def decoder():
        d, t = model.decode(sig, _leaf(z))
        return _total(d, t)

    def shadow():
        return _total(model.shadow_gain(ao))

    def composer():
        o = compose(sig.theta, _leaf(disp), _leaf(tex), _leaf(gain),
                    model.template, model.skeleton)
        return _total(o.posed, o.final)

    def raster():
        rt = rasterize(_leaf(out.posed), faces, uvs, _leaf(out.final),
                       camera, raster_cfg)
        return _total(rt.image, rt.mask)

    blocks = {"renderer.raster": raster, "avatar.encoder": encoder,
              "avatar.decoder": decoder, "avatar.shadow": shadow,
              "avatar.compose": composer}
    result = {}
    for name, build in blocks.items():
        fwd, bwd = [], []
        for _ in range(reps):
            model.store.zero_grad()
            t0 = time.perf_counter()
            loss = build()
            t1 = time.perf_counter()
            dc.backward(loss)
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        model.store.zero_grad()
        result[f"{name}_fwd_ms"] = 1e3 * statistics.median(fwd)
        result[f"{name}_bwd_ms"] = 1e3 * statistics.median(bwd)
    return result
