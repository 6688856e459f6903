"""KL penalty, MINE-style mutual-information adversary, perturbation
consistency and the HSIC independence test: the machinery that keeps the
latent code independent of the driving signals, and the test that checks
it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.stats

import dsaa
from dsaa import body, diffcore as dc, disentangle as dis
from dsaa.avatar import LatentDistribution
from dsaa.avatar.compose import pose
from dsaa.rng import stream
from critic_fit import fit_statistics
from fd import gradcheck
from test_avatar import SIG, build_model


# ------------------------------------------------------------------ helpers

def make_stats(n_c, n_z, seed=0, width=64):
    store = dc.ParamStore()
    net = dis.StatisticsNet(store, "mi", n_c, n_z, width=width,
                            rng=stream(seed, "stats"))
    return store, net


def net_scores(store, prefix, c, z):
    """Plain-numpy replay of the statistics net, as a reference path."""
    x = np.concatenate([c, z], axis=1)
    for layer in ("l1", "l2"):
        x = x @ store[f"{prefix}/{layer}/w"].data + store[f"{prefix}/{layer}/b"].data
        x = np.where(x > 0, x, 0.1 * x)
    return x @ store[f"{prefix}/out/w"].data + store[f"{prefix}/out/b"].data


def mi_estimate(net, c, z):
    """The pairing bound in nats, read off the critic's loss."""
    with dc.no_grad():
        return -float(dis.mine_loss(net, c, dc.Tensor(z)).data)


def gauss_pairs(n, rho, seed):
    """Jointly Gaussian (c, z) columns with correlation rho."""
    r = stream(seed, "gauss")
    x = r.standard_normal((n, 1))
    y = r.standard_normal((n, 1))
    return x, rho * x + np.sqrt(1.0 - rho * rho) * y


def strip_rig(ncol=13):
    """Two-row strip driven by a 3-joint chain; same layout as the avatar
    tests, here for the joint anchors. With an odd ncol every joint station
    is a column, so each anchor is bound to its joint alone."""
    xs = np.linspace(0.0, 2.0, ncol)
    verts, uvs = [], []
    for row, y in enumerate((0.0, 0.2)):
        for x in xs:
            verts.append([x, y, 0.0])
            uvs.append([0.05 + 0.9 * x / 2.0, 0.35 + 0.3 * row])
    faces = []
    for j in range(ncol - 1):
        faces.append([j, j + 1, ncol + j + 1])
        faces.append([j, ncol + j + 1, ncol + j])
    verts = np.asarray(verts)
    stations = np.array([0.0, 1.0, 2.0])
    w = np.maximum(0.0, 1.0 - np.abs(verts[:, :1] - stations[None, :]))
    w /= w.sum(axis=1, keepdims=True)
    tpl = body.TemplateMesh(verts, np.asarray(faces), np.asarray(uvs), w)
    eye = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
    rest_t = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
    skel = body.Skeleton(("root", "mid", "head"), np.array([-1, 0, 1]), eye, rest_t)
    return tpl, skel


# one anchor on the centre of texel (0, 0) of a 2x2 map: it samples that
# texel alone, with weight exactly 1
ANCHOR = np.array([[0.25, 0.25]])


def constant_maps(values):
    """One constant [1,2,2] map per value: a batch [B,1,2,2]."""
    return dc.Tensor(np.asarray(values, dtype=np.float64)[:, None, None, None]
                     * np.ones((1, 2, 2)))


# ---------------------------------------------------------------- KL penalty

def test_kl_zero_for_standard_normal():
    d = LatentDistribution(dc.Tensor(np.zeros(4)), dc.Tensor(np.ones(4)))
    assert float(dis.kl_loss(d).data) == 0.0


def test_kl_unit_mean_one_dim():
    # 0.5 * (mu^2 + sigma^2 - 1 - ln sigma^2) = 0.5 * (1 + 1 - 1 - 0)
    d = LatentDistribution(dc.Tensor(np.ones(1)), dc.Tensor(np.ones(1)))
    assert float(dis.kl_loss(d).data) == 0.5


def test_kl_matches_quadrature_oracle():
    for mu, s in [(0.7, 0.4), (-1.3, 2.5), (0.0, 0.3), (2.0, 1.0), (0.25, 1.7)]:
        d = LatentDistribution(dc.Tensor(np.array([mu])), dc.Tensor(np.array([s])))
        got = float(dis.kl_loss(d).data)
        p = scipy.stats.norm(mu, s)
        q = scipy.stats.norm(0.0, 1.0)
        ref, err = scipy.integrate.quad(
            lambda x: p.pdf(x) * (p.logpdf(x) - q.logpdf(x)),
            mu - 15 * s, mu + 15 * s, limit=200)
        assert err < 1e-8
        assert abs(got - ref) < 1e-6


def test_kl_nonnegative():
    r = stream(3, "klrand")
    for _ in range(1000):
        d = LatentDistribution(dc.Tensor(3.0 * r.standard_normal(16)),
                               dc.Tensor(r.uniform(0.2, 3.0, size=16)))
        assert float(dis.kl_loss(d).data) >= 0.0


def test_kl_rejects_nonpositive_sigma():
    d = LatentDistribution(dc.Tensor(np.zeros(2)), dc.Tensor(np.ones(2)))
    d.sigma.data[0] = 0.0  # slipped past the constructor check
    with pytest.raises(ValueError):
        dis.kl_loss(d)


def test_kl_gradients_closed_form():
    mu = dc.Tensor(np.array([0.3, -1.1, 0.0]), requires_grad=True)
    sg = dc.Tensor(np.array([0.7, 1.0, 2.3]), requires_grad=True)
    dc.backward(dis.kl_loss(LatentDistribution(mu, sg)))
    npt.assert_array_equal(mu.grad, mu.data)          # d/dmu = mu, exactly
    npt.assert_allclose(sg.grad, sg.data - 1.0 / sg.data, rtol=1e-13, atol=1e-15)


# ------------------------------------------------------------ MINE estimator

def test_mine_constant_statistics_is_zero():
    store, net = make_stats(2, 3, seed=1)
    for name in store.names():
        store[name].data[...] = 0.0
    store["mi/out/b"].data[...] = 0.375
    r = stream(2, "const")
    c, z = r.standard_normal((8, 2)), r.standard_normal((8, 3))
    assert float(dis.mine_loss(net, c, dc.Tensor(z)).data) == 0.0


def test_mine_matches_literal_two_pass():
    store, net = make_stats(3, 2, seed=4)
    r = stream(5, "pairs")
    c, z = r.standard_normal((16, 3)), r.standard_normal((16, 2))
    got = float(dis.mine_loss(net, c, dc.Tensor(z)).data)
    s_joint = net_scores(store, "mi", c, z)[:, 0]
    zhat = np.concatenate([z[1:], z[:1]], axis=0)
    s_marg = net_scores(store, "mi", c, zhat)[:, 0]
    ref = -(s_joint.mean() - np.log(np.mean(np.exp(s_marg))))
    assert abs(got - ref) < 1e-10


def test_mine_stable_under_large_scores():
    # the bound is invariant to f -> f + K; the naive log-mean-exp overflows
    store, net = make_stats(1, 1, seed=6)
    r = stream(7, "big")
    c, z = r.standard_normal((8, 1)), r.standard_normal((8, 1))
    base = float(dis.mine_loss(net, c, dc.Tensor(z)).data)
    naive = net_scores(store, "mi", c, z)[:, 0] + 800.0
    with np.errstate(over="ignore"):
        assert np.isinf(np.mean(np.exp(naive)))
    store["mi/out/b"].data[...] += 800.0
    shifted = float(dis.mine_loss(net, c, dc.Tensor(z)).data)
    assert np.isfinite(shifted)
    assert abs(shifted - base) < 1e-9


def test_mine_rejects_tiny_or_mismatched_batches():
    store, net = make_stats(1, 1)
    with pytest.raises(ValueError, match="at least 2"):
        dis.mine_loss(net, np.zeros((1, 1)), dc.Tensor(np.zeros((1, 1))))
    with pytest.raises(ValueError, match="mismatch"):
        dis.mine_loss(net, np.zeros((4, 1)), dc.Tensor(np.zeros((3, 1))))


@pytest.mark.parametrize("loss", [dis.mine_loss, dis.adversarial_dis_loss])
def test_bound_refuses_an_array_latent(loss):
    # z comes in one form, a [B, d_z] Tensor (`Tensor.detach` makes a
    # constant one); an array is refused, not run through a second path
    store, net = make_stats(2, 3)
    r = stream(8, "array-z")
    c, z = r.standard_normal((4, 2)), r.standard_normal((4, 3))
    with pytest.raises(ValueError, match=r"\[B, d_z\] Tensor"):
        loss(net, c, z)
    assert float(loss(net, c, dc.Tensor(z)).data) != 0.0


def test_statistics_net_output_and_inputs():
    store1, n1 = make_stats(2, 2, seed=9)
    store2, n2 = make_stats(2, 2, seed=9)
    for a, b in zip(store1.tensors(), store2.tensors()):
        npt.assert_array_equal(a.data, b.data)
    r = stream(1, "x")
    c, z = r.standard_normal((5, 2)), dc.Tensor(r.standard_normal((5, 2)))
    m = n1(c, z)
    assert m.data.shape == (5, 1)
    assert np.all(np.isfinite(m.data))
    with pytest.raises(ValueError):
        n1(np.full((5, 2), np.nan), z)
    with pytest.raises(ValueError):
        n1(c[:, :1], z)
    with pytest.raises(ValueError):
        n1(c[:4], z)


def test_statistics_net_refuses_an_array_latent():
    # z comes in one form, a [B, d_z] Tensor; c stays an array
    store, net = make_stats(2, 3)
    r = stream(3, "array-z")
    c, z = r.standard_normal((4, 2)), r.standard_normal((4, 3))
    with pytest.raises(ValueError, match=r"\[B, 3\] Tensor, got ndarray"):
        net(c, z)
    assert net(c, dc.Tensor(z)).shape == (4, 1)


def test_mine_independence_baseline():
    r = stream(21, "indep")
    c, z = r.standard_normal((20000, 1)), r.standard_normal((20000, 1))
    store, net = make_stats(1, 1, seed=21)
    fit_statistics(store, net, c, z, steps=600, batch=256, seed=21)
    assert mi_estimate(net, c, z) <= 0.05


def test_mine_gaussian_benchmark_band():
    # true MI at rho=0.9 is -0.5*ln(1-0.81) = 0.8304...; the estimator is a
    # lower bound, hence the asymmetric band
    c, z = gauss_pairs(20000, 0.9, seed=17)
    store, net = make_stats(1, 1, seed=17)
    fit_statistics(store, net, c, z, steps=1500, batch=256, seed=17)
    est = mi_estimate(net, c, z)
    assert 0.60 <= est <= 0.85


def test_mine_shuffled_pairing_estimates_zero():
    c, z = gauss_pairs(20000, 0.9, seed=30)
    zp = z[stream(31, "perm").permutation(20000)]
    store, net = make_stats(1, 1, seed=31)
    fit_statistics(store, net, c, zp, steps=600, batch=256, seed=31)
    assert abs(mi_estimate(net, c, zp)) <= 0.05


def test_stats_updates_raise_bound_on_fixed_batch():
    c, z = gauss_pairs(512, 0.9, seed=40)
    store, net = make_stats(1, 1, seed=40)
    trace = fit_statistics(store, net, c, z, steps=100, batch=512, seed=40)
    assert trace[-1] > trace[0]
    slack = 0.05 * (max(trace) - min(trace))
    assert all(b >= a - slack for a, b in zip(trace, trace[1:]))


# ------------------------------------------------------- adversarial routing

def test_adversarial_loss_negates_bound_and_freezes_net():
    store, net = make_stats(2, 2, seed=50)
    r = stream(51, "adv")
    c = r.standard_normal((8, 2))
    z = dc.Tensor(r.standard_normal((8, 2)), requires_grad=True)
    l_mi = dis.mine_loss(net, c, z)
    l_dis = dis.adversarial_dis_loss(net, c, z)
    assert float(l_dis.data) == -float(l_mi.data)
    store.zero_grad()
    z.grad = None
    dc.backward(l_dis)
    assert z.grad is not None and np.any(z.grad != 0.0)
    assert all(p.grad is None for p in store.tensors())


def test_adversarial_gradient_matches_fd():
    store, net = make_stats(2, 3, seed=60)
    c = stream(61, "c").standard_normal((6, 2))
    err = gradcheck(lambda zt: dis.adversarial_dis_loss(net, c, zt),
                       [stream(61, "z").standard_normal((6, 3))],
                       eps=1e-6, floor=1e-6)
    assert err < 1e-5


# ------------------------------------------------------ HSIC independence test

def report_shaped(seed):
    """Independent latent [200, 16] and signal [200, 37] draws, the
    report's shapes at its default frame cap."""
    r = stream(seed, "hsic-inputs")
    return r.standard_normal((200, 16)), r.standard_normal((200, 37))


def test_hsic_calibrated_on_independent_inputs():
    ps = [dis.hsic_test(*report_shaped(seed), seed=0)[1] for seed in range(20)]
    assert all(1 / 201 <= p <= 1.0 for p in ps)
    assert sum(p < 0.05 for p in ps) <= 3


def test_hsic_detects_one_planted_signal_scalar():
    for seed in range(5):
        r = stream(seed, "hsic-planted")
        c = r.uniform(-1.0, 1.0, size=(200, 37))
        z = r.standard_normal((200, 16))
        z[:, 0] = c[:, 9] / c[:, 9].std() + 0.5 * r.standard_normal(200)
        assert dis.hsic_test(z, c, seed=0)[1] <= 0.01


def test_hsic_same_inputs_and_seed_give_same_bytes():
    z, c = report_shaped(40)
    first = dis.hsic_test(z, c, seed=7)
    assert repr(dis.hsic_test(z.copy(), c.copy(), seed=7)) == repr(first)


def test_hsic_constant_signal_column_changes_nothing():
    # 0.3 is not the mean of its own 200 copies in floating point, so
    # centring alone leaves the column a tiny nonzero constant
    z, c = report_shaped(41)
    padded = np.insert(c, 5, 0.3, axis=1)
    assert padded[:, 5].mean() != 0.3
    with np.errstate(all="raise"):
        assert repr(dis.hsic_test(z, padded, seed=2)) \
            == repr(dis.hsic_test(z, c, seed=2))


def test_hsic_constant_latent_is_independent():
    _, c = report_shaped(42)
    with np.errstate(all="raise"):
        stat, p = dis.hsic_test(np.full((200, 16), 0.1), c, seed=2)
    assert stat == 0.0 and p == 1.0


def test_hsic_rejects_mismatched_rows():
    z, c = report_shaped(43)
    with pytest.raises(ValueError, match="equal rows"):
        dis.hsic_test(z[:199], c)
    with pytest.raises(ValueError, match="equal rows"):
        dis.hsic_test(z[:, 0], c)


def test_hsic_bytes_do_not_depend_on_blas_threads():
    code = ("from dsaa.disentangle import hsic_test\n"
            "from dsaa.rng import stream\n"
            "r = stream(44, 'hsic-inputs')\n"
            "z, c = r.standard_normal((200, 16)), r.standard_normal((200, 37))\n"
            "print(repr(hsic_test(z, c, seed=1)))\n")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(dsaa.__file__).parents[1]))
        out.append(subprocess.run([sys.executable, "-c", code], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout)
    assert out[0] == out[1]
    assert out[0] == repr(dis.hsic_test(*report_shaped(44), seed=1)) + "\n"


# --------------------------------------------------- perturbation consistency

def test_perturbation_zero_for_exact_copy():
    # the map carries the signal everywhere but at the anchor's texel
    cs = stream(70, "c").standard_normal(16)
    maps = dc.Tensor(np.array([[[[0.0, c], [c, c]]] for c in cs]))
    loss = dis.perturbation_loss(maps, ANCHOR)
    assert float(loss.data) == 0.0


def test_perturbation_additive_noise_expectation():
    # a corrective of z at the anchor leaks the whole sample: E[L] = E[z^2] = 1
    zs = stream(71, "z").standard_normal((20000, 1))
    loss = dis.perturbation_loss(constant_maps(zs[:, 0]), ANCHOR)
    got = float(loss.data)
    npt.assert_allclose(got, np.mean(zs ** 2), rtol=1e-9)
    assert abs(got - 1.0) < 0.05


def test_perturbation_nonnegative_and_gradient():
    zs = stream(72, "z").standard_normal((64, 1))
    a = dc.Tensor(np.array(1.5), requires_grad=True)
    loss = dis.perturbation_loss(dc.mul(constant_maps(zs[:, 0]), a), ANCHOR)
    assert float(loss.data) >= 0.0
    dc.backward(loss)
    npt.assert_allclose(a.grad, 2.0 * 1.5 * np.mean(zs ** 2), rtol=1e-9)


def test_perturbation_validates_shapes():
    # the prior maps take one latent sample per signal: the model's z
    # shape check refuses any other count, and no signal at all
    model = build_model()[0]
    zs = stream(73, "z").standard_normal((4, model.config.d_z))
    for signals, samples, match in (([SIG] * 4, zs[:3], r"shape \(4, 16\)"),
                                    ([], zs[:0], "no driving signals")):
        with pytest.raises(ValueError, match=match):
            model.displacement(signals, samples)


# ------------------------------------------------------------- joint anchors

def test_joint_sites_picks_strongest_vertex():
    tpl, skel = strip_rig()
    uvs = dis.joint_anchor_uvs(tpl, skel)
    assert uvs.shape == (3, 2)
    for j in range(3):
        best, bw = 0, -1.0
        for v in range(tpl.weights.shape[0]):
            if tpl.weights[v, j] > bw:
                best, bw = v, float(tpl.weights[v, j])
        # the second row binds as strongly; ties go to the lower index
        assert best < 13
        npt.assert_array_equal(uvs[j], tpl.uvs[best])


def test_joint_site_targets_follow_pose():
    # the pose-only anchor target (the template anchor, skinned) moves
    # rigidly with its joint, so a posed anchor sits R_j c from it and
    # the term equals the squared corrective at the anchors, for any pose
    tpl, skel = strip_rig()
    rows = [0, 6, 12]
    r = stream(80, "th")
    disp = dc.Tensor(r.uniform(-0.1, 0.1, size=(3, 8, 8)))
    thetas = [np.zeros(9)] + [r.uniform(-0.8, 0.8, size=9) for _ in range(4)]
    ref = 0.0
    for th in thetas:
        fk = body.forward_kinematics(skel, th)
        target = body.lbs_apply(tpl.verts[rows], fk, tpl.weights[rows])
        if not th.any():
            npt.assert_allclose(target, tpl.verts[rows], rtol=0, atol=1e-12)
        d = pose(th, disp, tpl, skel).data[rows] - target
        ref += float((d * d).sum()) / len(thetas)
    loss = dis.perturbation_loss(dc.stack([disp] * len(thetas)),
                                 dis.joint_anchor_uvs(tpl, skel))
    assert ref > 1e-4
    npt.assert_allclose(float(loss.data), ref, rtol=1e-12)


def test_joint_sites_rejects_mismatched_rig():
    tpl, _ = strip_rig()
    eye = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
    two = body.Skeleton(("root", "mid"), np.array([-1, 0]), eye, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="weight columns"):
        dis.joint_anchor_uvs(tpl, two)


def test_joint_anchors_refuse_blended_weights():
    # 12 columns miss the mid station: its strongest vertex (the lower of
    # two at equal weight) blends two joints
    tpl, skel = strip_rig(ncol=12)
    with pytest.raises(ValueError, match=r"anchor vertices \[5\] blend"):
        dis.joint_anchor_uvs(tpl, skel)
