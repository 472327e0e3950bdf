"""Norm-level tests: closed forms vs Monte-Carlo oracles, bound checks,
homogeneity/convexity structure of the expected-norm metric."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslergp.fields import JacobianPosterior
from finslergp.metric import (
    BoundReport,
    MetricPoint,
    _norm_partials,
    _norms_from_forms,
    alpha_coefficient,
    alpha_sigma_norm,
    bound_report,
    finsler_norm,
    fundamental_form,
    gap_bound,
    norms_sq,
    omega,
    relative_gap,
    riemannian_norm,
    stochastic_norm_sample,
)
from finslergp.randmat import WishartSpec, expected_norm_mc, sample_jacobian

from util import random_point, random_point_and_vector, random_unit_vector


def point_from(mean, cov, d=None):
    mean = np.asarray(mean, dtype=float)
    return MetricPoint(JacobianPosterior(mean=mean, cov=np.asarray(cov, float),
                                         dim_data=d or mean.shape[0]))


def central_point(d, q):
    return point_from(np.zeros((d, q)), np.eye(q))


# ---------------------------------------------------------------------------
# riemannian norm


def test_riemannian_norm_of_zero_vector():
    assert riemannian_norm(central_point(4, 2), np.zeros(2)) == 0.0


def test_riemannian_norm_central_isotropic():
    # E[J]=0, Sigma=I, D=4: norm of a unit vector is sqrt(D) = 2
    assert riemannian_norm(central_point(4, 3), random_unit_vector(np.random.default_rng(0), 3)) == pytest.approx(2.0, rel=1e-14)


def test_riemannian_norm_matches_sampled_second_moment():
    rng = np.random.default_rng(42)
    p, v = random_point_and_vector(rng, d=12, q=3)
    spec = WishartSpec(dof=12, scale=p.jac.cov, mean_jacobian=p.jac.mean)
    sq = np.array(
        [np.sum((sample_jacobian(spec, s) @ v) ** 2) for s in range(100_000)]
    )
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(riemannian_norm(p, v) ** 2 - sq.mean()) < 4 * se


def test_expected_metric_tensor_is_symmetric_psd():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p, _ = random_point_and_vector(rng)
        g = p.expected_metric_tensor
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g)[0] > -1e-10


# ---------------------------------------------------------------------------
# finsler norm


def test_finsler_central_d2_is_chi_mean():
    # central case with Sigma=I, D=2: the mean of a chi(2) variable
    v = np.array([0.6, -0.8])
    assert finsler_norm(central_point(2, 2), v) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)


def test_finsler_central_general_dimension():
    import mpmath as mp

    mp.mp.dps = 40
    p = central_point(7, 3)
    rng = np.random.default_rng(5)
    v = 1.7 * random_unit_vector(rng, 3)
    sigma = float(v @ v)  # Sigma = I
    want = float(mp.sqrt(2 * sigma) * mp.gamma(4) / mp.gamma(3.5))
    assert finsler_norm(p, v) == pytest.approx(want, rel=1e-12)


def test_finsler_matches_monte_carlo_mean():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p, v = random_point_and_vector(rng, d=7, q=3)
        spec = WishartSpec(dof=7, scale=p.jac.cov, mean_jacobian=p.jac.mean)
        est, se = expected_norm_mc(spec, v, n_samples=200_000, rng_seed=11)
        assert abs(finsler_norm(p, v) - est) < 4 * se


def test_finsler_deterministic_guard():
    mean = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]])
    p = point_from(mean, np.zeros((2, 2)))
    v = np.array([0.3, -1.1])
    assert finsler_norm(p, v) == pytest.approx(float(np.linalg.norm(mean @ v)), rel=1e-15)
    assert omega(p, v) == math.inf


def test_stochastic_norm_sample_statistics():
    rng = np.random.default_rng(9)
    p, v = random_point_and_vector(rng, d=6, q=2)
    draws = np.array([stochastic_norm_sample(p, v, seed) for seed in range(20_000)])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - finsler_norm(p, v)) < 4 * se
    assert stochastic_norm_sample(p, np.zeros(2), 0) == 0.0


def test_stochastic_norm_degenerate_covariance():
    mean = np.array([[1.0, 0.0], [0.0, 2.0]])
    p = point_from(mean, 1e-18 * np.eye(2))
    v = np.array([1.0, 1.0])
    want = float(np.linalg.norm(mean @ v))
    assert stochastic_norm_sample(p, v, 3) == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# alpha and omega


def test_alpha_small_dimensions():
    assert alpha_coefficient(2) == pytest.approx(math.pi / 2, rel=1e-12)
    assert alpha_coefficient(1) == pytest.approx(2 / math.pi, rel=1e-12)


def test_alpha_asymptotics_and_range():
    import mpmath as mp

    mp.mp.dps = 50
    want = float(2 * (mp.gamma(mp.mpf(1000) / 2 + mp.mpf(1) / 2) / mp.gamma(mp.mpf(1000) / 2)) ** 2)
    assert alpha_coefficient(1000) == pytest.approx(want, rel=1e-12)
    assert abs(alpha_coefficient(1000) - 999.5) < 1e-3
    for d in range(1, 60):
        assert 0.0 < alpha_coefficient(d) <= d


def test_alpha_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        alpha_coefficient(0)


def test_omega_central_and_isotropic():
    assert omega(central_point(5, 2), np.array([1.0, 2.0])) == 0.0
    p = point_from(2.0 * np.eye(2), np.eye(2))  # E[J]^T E[J] = 4 I
    for v in np.random.default_rng(0).standard_normal((5, 2)):
        assert omega(p, v) == pytest.approx(4.0, rel=1e-12)


def test_omega_scale_invariance_and_entry_bound():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p, v = random_point_and_vector(rng)
        w = omega(p, v)
        assert w >= 0.0
        assert omega(p, 37.5 * v) == pytest.approx(w, rel=1e-12)
        # entries of E[J] bounded by 1 -> omega <= D ||v||^2 / (v' Sigma v)
        sigma = float(v @ p.jac.cov @ v)
        assert w <= p.dim_data * float(v @ v) / sigma + 1e-9


# ---------------------------------------------------------------------------
# bounds


def test_bound_report_random_ensemble():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        p, v = random_point_and_vector(rng)
        rep = bound_report(p, v)
        assert isinstance(rep, BoundReport)
        assert rep.ok, (rep.lower, rep.finsler, rep.upper)


def test_bound_report_rejects_zero_vector():
    with pytest.raises(ValueError):
        bound_report(central_point(3, 2), np.zeros(2))


def test_central_lower_bound_is_tight():
    # with omega=0 the lower bound and the expected norm coincide exactly
    for d in (2, 17, 400):
        p = central_point(d, 2)
        v = np.array([0.3, 0.4])
        assert alpha_sigma_norm(p, v) == pytest.approx(finsler_norm(p, v), rel=1e-12)


def test_deterministic_limit_upper_bound_is_tight():
    mean = np.random.default_rng(3).uniform(-1, 1, (9, 3))
    p = point_from(mean, 1e-16 * np.eye(3))
    v = np.array([1.0, -0.5, 0.25])
    assert finsler_norm(p, v) == pytest.approx(riemannian_norm(p, v), rel=1e-6)


def test_relative_gap_closed_forms():
    p10 = central_point(10, 2)
    v = np.array([1.0, 0.0])
    gap, wb, jb = relative_gap(p10, v)
    assert wb == pytest.approx(0.1, rel=1e-14)
    # omega = 10 with D = 10: 1/20 + 10/400
    p = point_from(math.sqrt(2.0) * np.vstack([np.eye(2)] * 5), np.eye(2))
    assert omega(p, v) == pytest.approx(10.0, rel=1e-12)
    _, wb2, _ = relative_gap(p, v)
    assert wb2 == pytest.approx(0.075, rel=1e-14)


def test_relative_gap_random_ensemble():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        p, v = random_point_and_vector(rng)
        gap, wb, jb = relative_gap(p, v)
        assert -1e-12 <= gap <= wb + 1e-9
        assert jb == pytest.approx(wb, rel=1e-9)


def test_relative_gap_deterministic_point():
    p = point_from(np.eye(2), np.zeros((2, 2)))
    gap, wb, jb = relative_gap(p, np.array([1.0, 1.0]))
    assert gap == 0.0 and wb == 0.0 and jb == 0.0


def test_gap_below_monte_carlo_jensen_bound():
    # sharpened-Jensen bound estimated from samples of the squared norm
    rng = np.random.default_rng(23)
    for _ in range(3):
        p, v = random_point_and_vector(rng, d=9, q=3)
        gap, _, _ = relative_gap(p, v)
        mu = p.jac.mean @ v
        sig = float(v @ p.jac.cov @ v)
        g = rng.standard_normal((200_000, p.dim_data)) * math.sqrt(sig) + mu
        z = np.einsum("nd,nd->n", g, g)
        n = len(z)
        zbar = z.mean()
        c = z - zbar
        m2 = np.mean(c**2)
        m3 = np.mean(c**3)
        m4 = np.mean(c**4)
        bound = m2 / (2 * zbar**2)
        dz = -m2 / zbar**3
        ds = 1 / (2 * zbar**2)
        se = math.sqrt(
            max(dz * dz * m2 / n + 2 * dz * ds * m3 / n + ds * ds * (m4 - m2**2) / n, 0.0)
        )
        assert gap <= bound + 4 * se


# ---------------------------------------------------------------------------
# homogeneity, reversibility, Euler identity


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    lam=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
)
def test_finsler_positive_homogeneity(seed, lam):
    rng = np.random.default_rng(seed)
    p, v = random_point_and_vector(rng, d_max=40, q_max=4)
    assert finsler_norm(p, lam * v) == pytest.approx(lam * finsler_norm(p, v), rel=1e-10)


def test_finsler_reversibility_exact():
    rng = np.random.default_rng(29)
    for _ in range(50):
        p, v = random_point_and_vector(rng)
        assert finsler_norm(p, -v) == finsler_norm(p, v)


def test_euler_identity_for_gradient():
    rng = np.random.default_rng(31)
    for _ in range(25):
        p, v = random_point_and_vector(rng, d_max=30, q_max=4)
        h = 1e-6
        grad = np.empty_like(v)
        for i in range(len(v)):
            e = np.zeros_like(v)
            e[i] = h
            grad[i] = (finsler_norm(p, v + e) - finsler_norm(p, v - e)) / (2 * h)
        f = finsler_norm(p, v)
        assert float(grad @ v) == pytest.approx(f, rel=1e-5)


# ---------------------------------------------------------------------------
# fundamental form


def test_fundamental_form_deterministic_limit():
    mean = np.random.default_rng(37).uniform(-1, 1, (8, 3))
    p = point_from(mean, 1e-16 * np.eye(3))
    v = np.array([0.5, -1.0, 0.7])
    h = fundamental_form(p, v)
    want = mean.T @ mean
    assert np.max(np.abs(h - want)) / np.max(np.abs(want)) < 1e-3


def test_fundamental_form_central_case():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((2, 2))
    cov = a.T @ a + 0.1 * np.eye(2)
    p = point_from(np.zeros((6, 2)), cov)
    v = np.array([1.0, 0.4])
    h = fundamental_form(p, v)
    want = alpha_coefficient(6) * cov
    assert np.max(np.abs(h - want)) / np.max(np.abs(want)) < 1e-3


def test_fundamental_form_positive_definite_and_euler():
    rng = np.random.default_rng(43)
    for _ in range(60):
        p, v = random_point_and_vector(rng, d_max=40, q_max=4)
        h = fundamental_form(p, v)
        assert np.allclose(h, h.T)
        assert np.linalg.eigvalsh(h)[0] > 0.0
        f2 = finsler_norm(p, v) ** 2
        assert float(v @ h @ v) == pytest.approx(f2, rel=1e-4)


def test_fundamental_form_rejects_zero_vector():
    with pytest.raises(ValueError):
        fundamental_form(central_point(3, 2), np.zeros(2))


# ---------------------------------------------------------------------------
# batched norms


def _posterior_batch(rng, n, d, q):
    points = [random_point(rng, d=d, q=q) for _ in range(n)]
    means = np.stack([p.jac.mean for p in points])
    covs = np.stack([p.jac.cov for p in points])
    return points, means, covs


SCALAR_NORMS = {
    "riemann": riemannian_norm,
    "finsler": finsler_norm,
    "alpha_sigma": alpha_sigma_norm,
}


@pytest.mark.parametrize("d,q", [(1, 2), (3, 2), (40, 3), (512, 2)])
def test_norms_sq_matches_scalar_norms_at_every_direction(d, q):
    rng = np.random.default_rng(d + q)
    points, means, covs = _posterior_batch(rng, 6, d, q)
    shared = rng.standard_normal((70, q)) * rng.uniform(0.1, 10.0, (70, 1))
    per_point = rng.standard_normal((6, 5, q))
    for V in (shared, per_point, per_point[:, :1]):
        for kind, scalar in SCALAR_NORMS.items():
            got = np.sqrt(norms_sq(means, covs, d, V, kind))
            assert got.shape == (6, V.shape[-2])
            for i, p in enumerate(points):
                for k in range(V.shape[-2]):
                    v = V[k] if V.ndim == 2 else V[i, k]
                    assert got[i, k] == pytest.approx(scalar(p, v), rel=1e-12)
        w = norms_sq(means, covs, d, V, "omega")
        for i, p in enumerate(points):
            for k in range(V.shape[-2]):
                v = V[k] if V.ndim == 2 else V[i, k]
                assert w[i, k] == pytest.approx(omega(p, v), rel=1e-12)
                assert gap_bound(d, w[i, k]) == pytest.approx(relative_gap(p, v)[1], rel=1e-12)


def test_norms_sq_deterministic_limit_and_euclid():
    mean = np.random.default_rng(41).uniform(-1.0, 1.0, (5, 2))
    means, covs = mean[None], np.zeros((1, 2, 2))
    V = np.array([[1.0, 0.0], [0.3, -2.0]])
    signal = np.sum((mean @ V.T) ** 2, axis=0)
    assert np.allclose(norms_sq(means, covs, 5, V, "finsler")[0], signal, rtol=1e-14)
    assert np.all(np.isinf(norms_sq(means, covs, 5, V, "omega")))
    assert np.array_equal(norms_sq(means, covs, 5, V, "euclid")[0], np.sum(V * V, axis=1))
    with pytest.raises(ValueError, match="kind"):
        norms_sq(means, covs, 5, V, "taxicab")


def test_norms_sq_exactly_even():
    # opposite directions give bit-identical values in every kind
    rng = np.random.default_rng(43)
    _, means, covs = _posterior_batch(rng, 20, 7, 2)
    half = rng.standard_normal((64, 2))
    V = np.vstack([half, -half])
    for kind in ("riemann", "finsler", "alpha_sigma", "omega"):
        values = norms_sq(means, covs, 7, V, kind)
        assert np.array_equal(values[:, :64], values[:, 64:])


def test_gap_bound_scalar_and_array():
    assert gap_bound(4, 0.0) == 0.25
    assert gap_bound(4, math.inf) == 0.0
    w = np.array([0.0, 1.0, 10.0, math.inf])
    got = gap_bound(4, w)
    assert isinstance(got, np.ndarray)
    assert np.array_equal(got, [gap_bound(4, x) for x in w])
    assert np.all(np.diff(got) < 0.0)


def test_norms_sq_per_point_dims_match_int_calls():
    # one D per point gives, row by row and bit for bit, the int-D call for
    # that row's D; D spans small, large (1F1 at b = 512) and the row count
    rng = np.random.default_rng(47)
    _, means, covs = _posterior_batch(rng, 40, 30, 2)
    dims = rng.choice([1, 2, 30, 1024], 40)
    shared = rng.standard_normal((9, 2))
    per_point = rng.standard_normal((40, 3, 2))
    for V in (shared, per_point):
        for kind in ("riemann", "finsler", "alpha_sigma", "euclid", "omega"):
            got = norms_sq(means, covs, dims, V, kind)
            for i, d in enumerate(dims):
                row = V if V.ndim == 2 else V[i : i + 1]
                want = norms_sq(means[i : i + 1], covs[i : i + 1], int(d), row, kind)
                assert np.array_equal(got[i], want[0]), (kind, d)


def test_norms_sq_rejects_malformed_per_point_dims():
    _, means, covs = _posterior_batch(np.random.default_rng(53), 4, 3, 2)
    V = np.eye(2)
    for bad in (np.array([3, 3, 3]), np.array([3.0, 3.0, 3.0, 3.0])):
        with pytest.raises(ValueError, match="dim_data"):
            norms_sq(means, covs, bad, V, "riemann")


@pytest.mark.parametrize("kind", ["riemann", "alpha_sigma", "finsler"])
@pytest.mark.parametrize("dim", [1, 3, 512, "per_entry"])
def test_norm_partials_match_central_differences(kind, dim):
    # one batch of live entries and deterministic ones (sigma = 0), with
    # omega from 0 to 2000 (1F1 past x = -700) and a zero signal
    sigma = np.array([0.0, 0.5, 2.0, 0.0, 1e-3, 3.0, 0.2, 0.0])
    signal = np.array([1.2, 0.3, 5.0, 0.0, 2.0, 0.0, 40.0, 7.0])
    if dim == "per_entry":
        dim = np.array([1, 3, 512, 3, 1, 512, 3, 512])
    norm_sq, d_sigma, d_signal = _norm_partials(sigma, signal, dim, kind)
    assert np.array_equal(norm_sq, _norms_from_forms(sigma, signal, dim, kind))

    def f(s, y):
        return _norms_from_forms(s, y, dim, kind)

    # central differences, forward ones at sigma = 0, whose step the closed
    # form takes: d/dsigma there is the one-sided limit
    hi = sigma + np.where(sigma > 0.0, 1e-5 * sigma, 1e-7)
    lo = np.where(sigma > 0.0, sigma - 1e-5 * sigma, 0.0)
    hy = 1e-5 * np.maximum(signal, 1.0)
    fd_sigma = (f(hi, signal) - f(lo, signal)) / (hi - lo)
    fd_signal = (f(sigma, signal + hy) - f(sigma, signal - hy)) / (2.0 * hy)
    np.testing.assert_allclose(d_sigma, fd_sigma, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(d_signal, fd_signal, rtol=1e-6, atol=1e-6)
    dead = sigma == 0.0
    if kind == "finsler":
        # D - 1 with a signal, alpha(D) without
        dims = np.broadcast_to(dim, sigma.shape)[dead]
        alphas = [alpha_coefficient(int(d)) for d in dims]
        assert np.array_equal(d_sigma[dead], np.where(signal[dead] > 0.0, dims - 1.0, alphas))
        assert np.all(d_signal[dead] == 1.0)


@pytest.mark.parametrize("dim", [3, 64])
def test_finsler_sigma_partial_matches_mpmath_at_large_omega(dim):
    # signal/sigma from 1e6 to 5e13: alpha h (h + hx w) cancels there
    # (4.6e-2 off at sigma = 2e-14, D = 3); its positive series form
    # 1F1(1/2, D/2, -w/2) does not
    mpmath = pytest.importorskip("mpmath")
    sigma = np.array([1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 2e-14])
    signal = np.ones_like(sigma)
    _, d_sigma, _ = _norm_partials(sigma, signal, dim, "finsler")
    with mpmath.workdps(60):
        for s, got in zip(sigma, d_sigma):
            x = -1 / (2 * mpmath.mpf(s))
            want = (mpmath.mpf(alpha_coefficient(dim)) * mpmath.hyp1f1(-0.5, dim / 2, x)
                    * mpmath.hyp1f1(0.5, dim / 2, x))
            assert abs(got - want) <= 1e-14 * abs(want), s


def test_finsler_norm_at_d1_where_h_squared_overflows():
    # at D = 1, h = 1F1(-1/2, 1/2, -w/2) ~ sqrt(pi w / 2), so h^2 overflows
    # with w = 1.5e308; the norm (about 1.5) is finite and warns of nothing
    p = point_from([[math.sqrt(1.5)]], [[1e-308]])
    v = np.array([1.0])
    sigma, signal = np.array([1e-308]), np.array([float(p.jac.mean[0, 0]) ** 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm_sq = _norms_from_forms(sigma, signal, 1, "finsler")
        partials = _norm_partials(sigma, signal, 1, "finsler")
    assert all(np.all(np.isfinite(x)) for x in partials)
    assert np.array_equal(partials[0], norm_sq)
    assert norm_sq[0] == pytest.approx(finsler_norm(p, v) ** 2, rel=1e-12, abs=0.0)


def test_norms_from_forms_rejects_unknown_kinds():
    for fn in (_norms_from_forms, _norm_partials):
        with pytest.raises(ValueError, match="riemman"):
            fn(np.array([0.5]), np.array([2.0]), 3, "riemman")


def _pure_noise_point():
    # E[J] = 0, Sigma = I, D = 4: every direction's Finsler norm is
    # sqrt(alpha(4)) |v|, as the alpha_sigma norm is
    return MetricPoint(JacobianPosterior(np.zeros((4, 2)), np.eye(2), 4))


def test_finsler_norm_is_homogeneous_below_the_sigma_guard():
    p, want = _pure_noise_point(), math.sqrt(alpha_coefficient(4))
    e1 = np.array([1.0, 0.0])
    assert finsler_norm(p, 1.1e-7 * e1) / 1.1e-7 == pytest.approx(want, rel=1e-14)
    assert finsler_norm(p, 1e-7 * e1) / 1e-7 == pytest.approx(want, rel=1e-14)


def test_norms_sq_finsler_is_homogeneous_below_the_sigma_guard():
    p, want = _pure_noise_point(), alpha_coefficient(4)
    V = np.array([[1.1e-7, 0.0], [1e-7, 0.0]])
    got = norms_sq(p.jac.mean[None], p.jac.cov[None], 4, V, "finsler")[0]
    np.testing.assert_allclose(got / V[:, 0] ** 2, want, rtol=1e-14)


def test_bound_report_holds_below_the_sigma_guard():
    p = _pure_noise_point()
    assert bound_report(p, np.array([1.1e-7, 0.0])).ok
    assert bound_report(p, np.array([1e-7, 0.0])).ok


# ---------------------------------------------------------------------------
# every scale: no threshold on the length of v


def _drawn_point_and_vector(seed, d, posterior):
    # a random posterior, or one with E[J] = 0 (pure noise) or Sigma = 0
    # (deterministic), and a direction of length 0.1 to 10
    rng = np.random.default_rng(seed)
    p, v = random_point_and_vector(rng, d=d, q_max=3)
    if posterior == "central":
        p = point_from(np.zeros_like(p.jac.mean), p.jac.cov)
    elif posterior == "deterministic":
        p = point_from(p.jac.mean, np.zeros_like(p.jac.cov))
    return p, v * rng.uniform(0.1, 10.0)


_DRAWS = dict(
    seed=st.integers(0, 2**31 - 1),
    d=st.sampled_from([1, 2, 3, 8, 40, 512]),
    posterior=st.sampled_from(["random", "central", "deterministic"]),
    negative=st.booleans(),
)


def _batched_norms(p, V):
    # the norms_sq rows of V at p, per kind, as norms
    jac = p.jac
    return {kind: np.sqrt(norms_sq(jac.mean[None], jac.cov[None], jac.dim_data, V, kind)[0])
            for kind in SCALAR_NORMS}


@settings(max_examples=300, deadline=None)
@given(k=st.floats(-12.0, 12.0), **_DRAWS)
def test_norms_are_homogeneous_even_and_sandwiched_at_every_scale(seed, d, posterior, negative, k):
    p, v = _drawn_point_and_vector(seed, d, posterior)
    t = -(10.0**k) if negative else 10.0**k
    scalar = {kind: norm(p, t * v) for kind, norm in SCALAR_NORMS.items()}
    batched = _batched_norms(p, np.array([v, t * v]))
    for kind, norm in SCALAR_NORMS.items():
        assert scalar[kind] == pytest.approx(abs(t) * norm(p, v), rel=1e-12), kind
        assert batched[kind][1] == pytest.approx(abs(t) * batched[kind][0], rel=1e-12), kind
    for norms in (scalar, {kind: values[1] for kind, values in batched.items()}):
        lower, finsler, upper = norms["alpha_sigma"], norms["finsler"], norms["riemann"]
        assert lower <= finsler * (1.0 + 1e-12) and finsler <= upper * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(k=st.floats(-150.0, 0.0), **_DRAWS)
def test_relative_gap_is_scale_free(seed, d, posterior, negative, k):
    p, v = _drawn_point_and_vector(seed, d, posterior)
    t = -(10.0**k) if negative else 10.0**k
    (gap, *bounds), (want, *want_bounds) = relative_gap(p, t * v), relative_gap(p, v)
    # the gap is a difference of two norms, each good to a few ulp
    assert gap == pytest.approx(want, rel=0.0, abs=1e-13)
    assert bounds == pytest.approx(want_bounds, rel=1e-12, abs=0.0)
