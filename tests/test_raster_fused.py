"""The fused rasterizer node against the composed-graph reference
(tests/raster_oracle.py) on the default figure, also moved partly and
wholly off the canvas, plus guards on its graph size and its no_grad
path."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import dsaa.synthdata as sd
from dsaa import diffcore as dc, renderer
from dsaa.renderer import raster
from dsaa.renderer.camera import project
from dsaa.renderer.raster import _window_layout
from raster_oracle import rasterize_graph


@pytest.fixture(scope="module")
def scene():
    spec = sd.SceneSpec()
    theta, face, u = sd.sample_frame(spec, "000001", 7)
    _, posed = sd.frame_mesh(spec, theta, u)
    tex = sd.frame_texture(spec, u, face)
    return spec, posed, tex


def raster_config(spec, window=16):
    return renderer.RasterConfig(sigma_r=spec.sigma_r, gamma=spec.gamma_r,
                                 window=window)


def render_with_grads(fn, posed, tex, faces, uvs, cam, cfg, dtype, seed):
    """Image, mask and the verts/texture gradients of a random linear
    functional of both."""
    v = dc.Tensor(posed.astype(dtype), requires_grad=True)
    t = dc.Tensor(tex.astype(dtype), requires_grad=True)
    rt = fn(v, faces, uvs, t, cam, cfg)
    r = np.random.default_rng(seed)
    probe_img = r.normal(size=rt.image.shape).astype(dtype)
    probe_mask = r.normal(size=rt.mask.shape).astype(dtype)
    loss = dc.add(dc.sum_(dc.mul(rt.image, probe_img)),
                  dc.sum_(dc.mul(rt.mask, probe_mask)))
    dc.backward(loss)
    return rt.image.data, rt.mask.data, v.grad, t.grad


def compare(scene, faces, window, dtype, cams):
    spec, posed, tex = scene
    uvs = spec.figure.template.uvs
    cfg = raster_config(spec, window)
    for k, cam in enumerate(sd.scene_cameras(spec)[:cams]):
        yield (render_with_grads(renderer.rasterize, posed, tex, faces, uvs,
                                 cam, cfg, dtype, seed=k),
               render_with_grads(rasterize_graph, posed, tex, faces, uvs,
                                 cam, cfg, dtype, seed=k))


# A full-image window on all 856 faces costs several GB in the reference
# graph, so the unwindowed comparison runs on every 36th face.
CASES = [("windowed", 16, slice(None), 4), ("unwindowed", None, slice(None, None, 36), 4)]


@pytest.mark.parametrize("name,window,subset,cams", CASES)
def test_float64_forward_bit_identical_and_gradients_agree(scene, name, window,
                                                          subset, cams):
    faces = scene[0].figure.template.faces[subset]
    for fused, graph in compare(scene, faces, window, np.float64, cams):
        npt.assert_array_equal(fused[0], graph[0])
        npt.assert_array_equal(fused[1], graph[1])
        npt.assert_allclose(fused[2], graph[2], rtol=1e-9, atol=0.0)
        npt.assert_allclose(fused[3], graph[3], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("name,window,subset,cams", CASES)
def test_float32_agrees_with_graph(scene, name, window, subset, cams):
    faces = scene[0].figure.template.faces[subset]
    for fused, graph in compare(scene, faces, window, np.float32, cams):
        assert fused[0].dtype == np.float32 and fused[2].dtype == np.float32
        npt.assert_allclose(fused[0], graph[0], rtol=0.0, atol=1e-6)
        npt.assert_allclose(fused[1], graph[1], rtol=0.0, atol=1e-6)
        # different float32 summation orders: entries that nearly cancel
        # carry rounding noise relative to the gradient's own scale
        for a, b in ((fused[2], graph[2]), (fused[3], graph[3])):
            npt.assert_allclose(a, b, rtol=1e-4, atol=1e-4 * np.abs(b).max())


def test_float64_zero_area_faces_match_graph(scene):
    # faces [i, i, i] (a point) and [i, i, j] (a segment) have no inside in
    # either form, next to ordinary faces
    spec, posed, tex = scene
    fig = spec.figure
    ids = np.arange(0, len(posed), 50)
    faces = np.vstack([fig.template.faces[::12],
                       np.repeat(ids[:, None], 3, axis=1),
                       np.stack([ids, ids, ids + 1], axis=1)])
    cfg = raster_config(spec)
    for k, cam in enumerate(sd.scene_cameras(spec)[:2]):
        fused, graph = (render_with_grads(fn, posed, tex, faces, fig.template.uvs,
                                          cam, cfg, np.float64, seed=k)
                        for fn in (renderer.rasterize, rasterize_graph))
        npt.assert_array_equal(fused[0], graph[0])
        npt.assert_array_equal(fused[1], graph[1])
        npt.assert_allclose(fused[3], graph[3], rtol=1e-9, atol=0.0)


def shifted(cam, frac):
    """`cam` with the principal point moved sideways by frac * width."""
    return dataclasses.replace(cam, cx=cam.cx + frac * cam.width)


def empty_windows(scene, faces, cam, cfg):
    """Faces of `faces` whose window has no on-canvas pixel under `cam`."""
    screen, _ = project(cam, dc.Tensor(scene[1]))
    y0, y1, x0, x1 = _window_layout(screen.data[faces], cam.height, cam.width, cfg)
    return int(((y1 - y0) * (x1 - x0) == 0).sum())


@pytest.mark.parametrize("frac", [0.5, -0.5])
def test_float64_off_canvas_faces_match_graph(scene, frac):
    # the figure half off the canvas: faces with an empty pixel run sit
    # between faces with pixels, which the per-face sums must skip
    spec, posed, tex = scene
    fig = spec.figure
    cfg = raster_config(spec)
    for k, cam in enumerate(sd.scene_cameras(spec)[:2]):
        cam = shifted(cam, frac)
        n_empty = empty_windows(scene, fig.template.faces, cam, cfg)
        assert 0 < n_empty < len(fig.template.faces)
        fused, graph = (render_with_grads(fn, posed, tex, fig.template.faces,
                                          fig.template.uvs, cam, cfg, np.float64, seed=k)
                        for fn in (renderer.rasterize, rasterize_graph))
        npt.assert_array_equal(fused[0], graph[0])
        npt.assert_array_equal(fused[1], graph[1])
        npt.assert_allclose(fused[3], graph[3], rtol=1e-9, atol=0.0)
        # vertices whose faces reach the canvas only with their far tail
        # get near-cancelling sums (down to 1e-50 here): the two summation
        # orders differ there by rounding at the gradient's own scale
        npt.assert_allclose(fused[2], graph[2], rtol=1e-9,
                            atol=1e-12 * np.abs(graph[2]).max())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fully_off_canvas_frame_is_background_with_zero_gradients(scene, dtype):
    spec, posed, tex = scene
    fig = spec.figure
    cfg = raster_config(spec)
    cam = shifted(sd.scene_cameras(spec)[0], 2.0)
    assert empty_windows(scene, fig.template.faces, cam, cfg) == len(fig.template.faces)
    image, mask, gv, gt = render_with_grads(renderer.rasterize, posed, tex,
                                            fig.template.faces, fig.template.uvs,
                                            cam, cfg, dtype, seed=0)
    npt.assert_array_equal(image, np.zeros_like(image))   # background (0, 0, 0)
    npt.assert_array_equal(mask, np.zeros_like(mask))
    assert gv.dtype == dtype and gt.dtype == dtype
    npt.assert_array_equal(gv, np.zeros_like(gv))
    npt.assert_array_equal(gt, np.zeros_like(gt))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_no_grad_forward_is_byte_equal(scene, dtype):
    spec, posed, tex = scene
    fig = spec.figure
    cam = sd.scene_cameras(spec)[1]
    cfg = raster_config(spec)
    v = dc.Tensor(posed.astype(dtype), requires_grad=True)
    t = dc.Tensor(tex.astype(dtype), requires_grad=True)
    live = renderer.rasterize(v, fig.template.faces, fig.template.uvs, t, cam, cfg)
    with dc.no_grad():
        off = renderer.rasterize(v, fig.template.faces, fig.template.uvs, t, cam, cfg)
    assert live.image.requires_grad and not off.image.requires_grad
    assert off.image.data.tobytes() == live.image.data.tobytes()
    assert off.mask.data.tobytes() == live.mask.data.tobytes()


def test_one_rasterize_call_adds_few_tape_nodes(scene):
    # projection (~14 nodes), the fused node, and the two output views;
    # the composed graph this replaced added about 180
    spec, posed, tex = scene
    fig = spec.figure
    v = dc.Tensor(posed, requires_grad=True)
    t = dc.Tensor(tex, requires_grad=True)
    rt = renderer.rasterize(v, fig.template.faces, fig.template.uvs, t,
                            sd.scene_cameras(spec)[0], raster_config(spec))
    seen, stack = set(), [rt.image, rt.mask]
    while stack:
        node = stack.pop()
        if id(node) in seen or node is v or node is t:
            continue
        seen.add(id(node))
        stack.extend(x for x, need in zip(node._operands, node._needs) if need)
    assert len(seen) <= 20, len(seen)


def test_frozen_texture_gets_no_gradient_work(scene, monkeypatch):
    # the fused node skips the texture's bincounts when the texture needs
    # no gradient, and the verts' gradient does not depend on it
    spec, posed, tex = scene
    fig = spec.figure
    calls, real = [], raster.bilinear_tex_grad

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(raster, "bilinear_tex_grad", counted)
    grads = []
    for trainable in (True, False):
        v = dc.Tensor(posed, requires_grad=True)
        t = dc.Tensor(tex, requires_grad=trainable)
        rt = renderer.rasterize(v, fig.template.faces, fig.template.uvs, t,
                                sd.scene_cameras(spec)[0], raster_config(spec))
        dc.backward(dc.sum_(rt.image))
        grads.append(v.grad)
        assert (t.grad is None) == (not trainable)
    assert len(calls) == 1              # the trainable texture's only
    assert grads[0].tobytes() == grads[1].tobytes()
