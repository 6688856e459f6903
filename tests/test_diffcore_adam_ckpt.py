"""Optimizer and checkpoint container contracts."""

import numpy as np
import numpy.testing as npt
import pytest

from dsaa import diffcore as dc


def test_adam_zero_grad_from_fresh_state_is_noop():
    ps = dc.ParamStore()
    p = ps.add("w", np.array([1.0, -2.0, 3.0]))
    opt = dc.Adam(ps, lr=0.1)
    p.grad = np.zeros(3)
    opt.step()
    npt.assert_array_equal(p.data, [1.0, -2.0, 3.0])


def test_adam_first_step_hand_value():
    # with any nonzero constant gradient, step 1 moves by exactly lr*g/(|g|+eps*sqrt(1-b2))
    ps = dc.ParamStore()
    p = ps.add("w", np.array([0.0]))
    opt = dc.Adam(ps, lr=1e-3)
    p.grad = np.array([4.0])
    opt.step()
    # mhat = g, vhat = g^2 -> update = lr * g / (|g| + eps)
    expected = -1e-3 * 4.0 / (4.0 + 1e-8)
    npt.assert_allclose(p.data, [expected], rtol=1e-12)


def test_adam_step_consumes_the_gradients():
    # step() sets every .grad to None, so a second step with no new
    # backward applies a zero gradient: it moves by the moments alone
    def fresh():
        ps = dc.ParamStore()
        ps.add("a", np.array([1.0, -2.0, 3.0]))
        ps.add("b", np.array([0.5]))
        return ps, dc.Adam(ps, lr=0.1)

    ps, opt = fresh()
    dc.backward(dc.sum_(dc.mul(dc.mul(ps["a"], ps["a"]), ps["b"])))
    opt.step()
    assert all(t.grad is None for t in ps.tensors())
    after_one = [t.data.copy() for t in ps.tensors()]
    opt.step()
    assert all(t.grad is None for t in ps.tensors())

    ref, ref_opt = fresh()
    dc.backward(dc.sum_(dc.mul(dc.mul(ref["a"], ref["a"]), ref["b"])))
    ref_opt.step()
    for t in ref.tensors():
        t.grad = np.zeros_like(t.data)
    ref_opt.step()
    for t, r, one in zip(ps.tensors(), ref.tensors(), after_one):
        assert t.data.tobytes() == r.data.tobytes()
        assert (t.data != one).all()


def test_adam_converges_on_quadratic():
    ps = dc.ParamStore()
    p = ps.add("w", np.array([5.0, -3.0]))
    opt = dc.Adam(ps, lr=0.05)
    for _ in range(2000):
        ps.zero_grad()
        t = p
        loss = dc.sum_(dc.mul(t, t))
        dc.backward(loss)
        opt.step()
    npt.assert_allclose(p.data, [0.0, 0.0], atol=1e-4)


def test_adam_deterministic_and_resumable(tmp_path):
    def fresh():
        ps = dc.ParamStore()
        ps.add("a", np.linspace(-1, 1, 6).reshape(2, 3))
        ps.add("b", np.array([0.5]))
        return ps, dc.Adam(ps, lr=0.01)

    def one_step(ps, opt, i):
        ps.zero_grad()
        x = dc.Tensor(np.full((2, 3), 0.1 * (i + 1)))
        loss = dc.sum_(dc.mul(dc.add(dc.mul(ps["a"], x), ps["b"]),
                              dc.add(dc.mul(ps["a"], x), ps["b"])))
        dc.backward(loss)
        opt.step()

    ps1, o1 = fresh()
    for i in range(10):
        one_step(ps1, o1, i)

    # interrupted at 5, saved, reloaded, continued
    ps2, o2 = fresh()
    for i in range(5):
        one_step(ps2, o2, i)
    blob = {}
    blob.update(ps2.state_arrays("param/"))
    blob.update(o2.state_arrays())
    path = tmp_path / "ck.dsaa"
    dc.save_arrays(path, blob)

    ps3, o3 = fresh()
    loaded = dc.load_arrays(path)
    ps3.load_state(loaded, "param/")
    o3.load_state(loaded)
    for i in range(5, 10):
        one_step(ps3, o3, i)

    npt.assert_array_equal(ps1["a"].data, ps3["a"].data)
    npt.assert_array_equal(ps1["b"].data, ps3["b"].data)


def test_checkpoint_roundtrip_bitexact(tmp_path):
    r = np.random.default_rng(5)
    arrays = {
        "enc/w0": r.normal(size=(4, 3, 3, 3)),
        "enc/b0": r.normal(size=(4,)).astype(np.float32),
        "scalar": np.array(3.25),
    }
    p = tmp_path / "x.dsaa"
    dc.save_arrays(p, arrays)
    back = dc.load_arrays(p)
    assert list(back) == list(arrays)
    for k in arrays:
        assert back[k].dtype == arrays[k].dtype
        npt.assert_array_equal(back[k], arrays[k])
    # same content -> same bytes
    p2 = tmp_path / "y.dsaa"
    dc.save_arrays(p2, arrays)
    assert p.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.dsaa"
    p.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        dc.load_arrays(p)


def test_checkpoint_truncated_at_every_offset(tmp_path):
    # a cut inside a record raises ValueError; a cut on a record boundary
    # reads back exactly the records before it
    arrays = {"a": np.arange(3.0), "bb": np.ones((2, 1), dtype=np.float32)}
    p = tmp_path / "x.dsaa1"
    dc.save_arrays(p, arrays)
    full = p.read_bytes()
    ends = {}
    for k in range(len(arrays) + 1):
        dc.save_arrays(p, dict(list(arrays.items())[:k]))
        ends[p.stat().st_size] = list(arrays)[:k]
    cut = tmp_path / "cut.dsaa1"
    for n in range(len(full)):
        cut.write_bytes(full[:n])
        if n in ends:
            back = dc.load_arrays(cut)
            assert list(back) == ends[n]
            for name in back:
                npt.assert_array_equal(back[name], arrays[name])
        else:
            with pytest.raises(ValueError, match="truncated|magic"):
                dc.load_arrays(cut)
