"""GP regression and Jacobian-posterior tests.

Derivative formulas are checked against finite differences of the kernel
and of the posterior mean itself; posteriors are checked against a dense
linear-algebra oracle that never touches the Cholesky caching path.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from finslergp import gp
from finslergp._lapack import lapack_blas
from finslergp.data import gen_pinwheel_sphere
from finslergp.fields import _PD_MARGIN, _clamp_psd_batch
from finslergp.gp import (
    MATERN52,
    RBF,
    GpModel,
    Kernel,
    _differences,
    _jacobian_pass,
    _kernel_matrix,
    _prior_derivative_cov,
    _radial_coefficients,
    _sqdist,
    fit_gplvm,
    fit_hyperparameters,
    load_model,
    log_marginal_likelihood,
    make_model,
    pca_latents,
    posterior_mean_var,
    save_model,
)

from oracles import (
    _jacobian_posterior_batch,
    _jacobian_posterior_batch_dz,
    _kernel_grad_first,
    _log_marginal_and_grad,
    _log_marginal_grad_mmat,
    jacobian_posterior_closed_form,
    jacobian_posterior_discretized,
    kernel_eval,
    kernel_of_r2_formula,
    log_marginal_terms_separate_exps,
    radial_coefficients_formula,
)


def smooth_targets(X, d=3):
    # deterministic smooth map latents -> data, rich enough to pin a GP
    cols = []
    for j in range(d):
        cols.append(np.sin(X @ np.arange(1, X.shape[1] + 1) * 0.7 + 0.3 * j) + 0.1 * j)
    return np.stack(cols, axis=1)


def make_smooth_model(family=RBF, n=25, q=2, d=3, noise=1e-6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, q))
    Y = smooth_targets(X, d)
    return make_model(X, Y, Kernel(family, 1.0, 1.0), noise)


# ---------------------------------------------------------------------------
# kernel values and derivatives


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("cubic", 1.0, 1.0)
    with pytest.raises(ValueError):
        Kernel(RBF, -1.0, 1.0)
    with pytest.raises(ValueError):
        Kernel(RBF, 1.0, 0.0)
    # the constants of the formulas over- or underflow: l^2, sigma^2 / l^2
    # and Matern's sigma^2 u^4 / 3 must be finite and positive
    for family, lengthscale, variance in [(RBF, 1e-170, 1.0), (RBF, 1e200, 1.0),
                                          (RBF, 1e-10, 1e300), (MATERN52, 1e-100, 1.0),
                                          (MATERN52, 1e100, 1.0)]:
        with pytest.raises(ValueError, match="overflows or underflows"):
            Kernel(family, lengthscale, variance)
    Kernel(RBF, 1e-100, 1e-300)
    Kernel(MATERN52, 1e-50, 1.0)


def test_rbf_values():
    k = Kernel(RBF, 1.3, 2.1)
    z = np.array([0.4, -1.2])
    assert kernel_eval(k, z, z) == pytest.approx(2.1, rel=1e-15)
    w = np.array([1.0, 0.5])
    r2 = float(np.sum((z - w) ** 2))
    assert kernel_eval(k, z, w) == pytest.approx(2.1 * math.exp(-0.5 * r2 / 1.3**2), rel=1e-14)


def test_matern_value_at_unit_distance():
    # (1 + sqrt5 + 5/3) e^{-sqrt5}, checked in extended precision
    import mpmath as mp

    mp.mp.dps = 40
    want = float((1 + mp.sqrt(5) + mp.mpf(5) / 3) * mp.exp(-mp.sqrt(5)))
    k = Kernel(MATERN52, 1.0, 1.0)
    got = kernel_eval(k, np.zeros(2), np.array([1.0, 0.0]))
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.52399411, rel=1e-7)


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_kernel_gradient_matches_finite_differences(family):
    k = Kernel(family, 0.9, 1.7)
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(8):
        z1 = rng.uniform(-1.5, 1.5, 3)
        z2 = rng.uniform(-1.5, 1.5, 3)
        grad = _kernel_grad_first(k, z1[None, :], z2[None, :])[0, 0]
        for i in range(3):
            e = h * np.eye(3)[i]
            fd = (kernel_eval(k, z1 + e, z2) - kernel_eval(k, z1 - e, z2)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_coincident_cross_derivative(family):
    # d^2 k / dz1_i dz2_j at z1 = z2, via differencing the analytic gradient
    k = Kernel(family, 0.8, 1.3)
    z = np.array([0.3, -0.7, 1.1])
    want = _prior_derivative_cov(k, 3)
    h = 1e-6
    got = np.empty((3, 3))
    for j in range(3):
        e = h * np.eye(3)[j]
        gp = _kernel_grad_first(k, z[None, :], (z + e)[None, :])[0, 0]
        gm = _kernel_grad_first(k, z[None, :], (z - e)[None, :])[0, 0]
        got[:, j] = (gp - gm) / (2 * h)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_log_marginal_gradient_matches_finite_differences(family):
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, (14, 2))
    Yc = smooth_targets(X)
    Yc = Yc - Yc.mean(axis=0)
    theta = np.log(np.array([0.9, 1.4, 0.02]))

    def lml_at(t):
        ell, var, noise = np.exp(t)
        return _log_marginal_and_grad(X, Yc, Kernel(family, ell, var), noise)[0]

    _, grad = _log_marginal_and_grad(
        X, Yc, Kernel(family, *np.exp(theta[:2])), math.exp(theta[2])
    )
    h = 1e-6
    for i in range(3):
        e = h * np.eye(3)[i]
        fd = (lml_at(theta + e) - lml_at(theta - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


# ---------------------------------------------------------------------------
# posterior predictions


def test_posterior_interpolates_training_data():
    m = make_smooth_model(noise=1e-8)
    for i in range(len(m.latent_inputs)):
        mean, var = posterior_mean_var(m, m.latent_inputs[i])
        assert np.max(np.abs(mean - m.outputs[i])) < 1e-4
        assert 0.0 <= var < 1e-6


def test_posterior_reverts_to_prior_far_from_data():
    m = make_smooth_model(noise=1e-4)
    mean, var = posterior_mean_var(m, np.array([50.0, -60.0]))
    assert np.max(np.abs(mean - m.output_means)) < 1e-6
    assert abs(var - m.kernel.variance) < 1e-6


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_posterior_matches_dense_solve_oracle(family):
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, (12, 2))
    Y = smooth_targets(X)
    k = Kernel(family, 1.1, 0.8)
    noise = 1e-3
    m = make_model(X, Y, k, noise)

    kmat = _kernel_matrix(k, X, X) + noise * np.eye(12)
    kinv = np.linalg.inv(kmat)
    for z in rng.uniform(-2, 2, (5, 2)):
        ks = _kernel_matrix(k, z[None, :], X)[0]
        want_mean = Y.mean(axis=0) + ks @ kinv @ (Y - Y.mean(axis=0))
        want_var = k.variance - ks @ kinv @ ks
        mean, var = posterior_mean_var(m, z)
        assert np.allclose(mean, want_mean, rtol=1e-10, atol=1e-12)
        assert var == pytest.approx(want_var, rel=1e-8, abs=1e-12)


def test_posterior_variance_nonnegative_on_grid():
    m = make_smooth_model(noise=1e-8)
    g = np.linspace(-4, 4, 32)
    zz = np.array([[a, b] for a in g for b in g])
    from finslergp.gp import _posterior_mean_var_batch

    _, var = _posterior_mean_var_batch(m, zz)
    assert np.all(var >= 0.0)


# ---------------------------------------------------------------------------
# Jacobian posteriors


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_jacobian_mean_is_derivative_of_posterior_mean(family):
    m = make_smooth_model(family=family, noise=1e-6, seed=1)
    rng = np.random.default_rng(2)
    h = 1e-5
    for z in rng.uniform(-1.5, 1.5, (5, 2)):
        jac = jacobian_posterior_closed_form(m, z)
        fd = np.empty_like(jac.mean)
        for j in range(2):
            e = h * np.eye(2)[j]
            fd[:, j] = (posterior_mean_var(m, z + e)[0] - posterior_mean_var(m, z - e)[0]) / (2 * h)
        assert np.allclose(jac.mean, fd, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("family,n_points", [(RBF, 30), (MATERN52, 20)])
def test_closed_form_agrees_with_discretized(family, n_points):
    m = make_smooth_model(family=family, noise=1e-6, seed=4)
    rng = np.random.default_rng(5)
    for z in rng.uniform(-1.8, 1.8, (n_points, 2)):
        a = jacobian_posterior_closed_form(m, z)
        b = jacobian_posterior_discretized(m, z, h=1e-4)
        scale = np.max(np.abs(a.mean)) + 1e-12
        assert np.max(np.abs(a.mean - b.mean)) / scale < 1e-3
        cscale = np.max(np.abs(a.cov)) + 1e-12
        assert np.max(np.abs(a.cov - b.cov)) / cscale < 1e-3


def test_jacobian_far_from_data_reverts_to_prior():
    for family, dcov in [(RBF, 1.0 / 1.0), (MATERN52, 5.0 / 3.0)]:
        m = make_smooth_model(family=family, noise=1e-4)
        jac = jacobian_posterior_closed_form(m, np.array([80.0, 80.0]))
        assert np.max(np.abs(jac.mean)) < 1e-8
        assert np.allclose(jac.cov, dcov * np.eye(2), atol=1e-6)


def test_jacobian_of_near_identity_map():
    # fitting the identity function, the Jacobian mean should be near I
    g = np.linspace(-2.0, 2.0, 9)
    X = np.array([[a, b] for a in g for b in g])
    m = make_model(X, X.copy(), Kernel(RBF, 1.5, 4.0), 1e-6)
    for z in [np.zeros(2), np.array([0.5, -0.3])]:
        jac = jacobian_posterior_closed_form(m, z)
        assert np.max(np.abs(jac.mean - np.eye(2))) < 5e-2


def test_jacobian_batch_matches_single_point_path():
    m = make_smooth_model(noise=1e-6, seed=9)
    Z = np.random.default_rng(10).uniform(-1.5, 1.5, (7, 2))
    means, covs = _jacobian_posterior_batch(m, Z)
    for i, z in enumerate(Z):
        one = jacobian_posterior_closed_form(m, z)
        assert np.allclose(means[i], one.mean, rtol=0, atol=1e-14)
        assert np.allclose(covs[i], one.cov, rtol=0, atol=1e-14)


def test_discretized_step_validation():
    m = make_smooth_model()
    with pytest.raises(ValueError):
        jacobian_posterior_discretized(m, np.zeros(2), h=0.0)
    with pytest.warns(UserWarning):
        jacobian_posterior_discretized(m, np.zeros(2), h=0.5)


def test_discretized_checks_the_point():
    # a point of the wrong width or a non-finite one is refused with the
    # closed form's ValueError, instead of being read coordinate by coordinate
    m = make_smooth_model()
    for z, match in (([0.1], "latent dimension"), ([0.1, 0.2, 0.3], "latent dimension"),
                     ([np.nan, 0.2], "finite")):
        with pytest.raises(ValueError, match=match):
            jacobian_posterior_closed_form(m, np.array(z))
        with pytest.raises(ValueError, match=match):
            jacobian_posterior_discretized(m, np.array(z), h=1e-4)


def test_jacobian_cov_is_psd():
    m = make_smooth_model(noise=1e-8)
    rng = np.random.default_rng(21)
    for z in rng.uniform(-3, 3, (20, 2)):
        jac = jacobian_posterior_closed_form(m, z)
        vals = np.linalg.eigvalsh(jac.cov)
        assert vals[0] >= 0.0


# ---------------------------------------------------------------------------
# fitting


def test_fit_zero_steps_is_identity():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, (15, 2))
    Y = smooth_targets(X)
    k0 = Kernel(RBF, 1.7, 0.6)
    m = fit_hyperparameters(X, Y, k0, 0.05, steps=0)
    assert m.kernel == k0
    assert m.noise == 0.05


def test_fit_never_decreases_marginal_likelihood():
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, (20, 2))
    Y = smooth_targets(X)
    Yc = Y - Y.mean(axis=0)
    k0 = Kernel(RBF, 3.0, 0.3)
    before, _ = _log_marginal_and_grad(X, Yc, k0, 0.1)
    m = fit_hyperparameters(X, Y, k0, 0.1, steps=60, lr=0.08)
    after, _ = _log_marginal_and_grad(X, Yc, m.kernel, m.noise)
    assert after >= before


def test_fit_recovers_lengthscale_within_factor_two():
    # data drawn from a known GP; the fitted lengthscale should land close
    true = Kernel(RBF, 0.8, 1.5)
    ratios = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        X = rng.uniform(-3, 3, (40, 2))
        kmat = _kernel_matrix(true, X, X) + 1e-6 * np.eye(40)
        Y = np.linalg.cholesky(kmat) @ rng.standard_normal((40, 4))
        m = fit_hyperparameters(X, Y, Kernel(RBF, 2.0, 1.0), 0.01, steps=120, lr=0.08)
        ratios.append(m.kernel.lengthscale / true.lengthscale)
    med = float(np.median(ratios))
    assert 0.5 < med < 2.0


# the log marginal likelihood that 200 Adam steps at lr 0.05 reached on the
# fit below (201 objective evaluations), before L-BFGS replaced Adam
_ADAM_200_STEPS = 661.1459325695404


def test_fit_converges_in_few_evaluations(monkeypatch):
    from finslergp import gp

    calls = []
    objective = gp._fit_objective

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(gp, "_fit_objective", counted)
    Y = gen_pinwheel_sphere(n=200, arms=5, noise=0.05, seed=0).points
    m = fit_hyperparameters(pca_latents(Y, 2), Y, Kernel(RBF, 0.6, 1.0), 0.005, steps=200)
    assert log_marginal_likelihood(m) >= _ADAM_200_STEPS
    assert len(calls) <= 30


def test_fit_is_deterministic():
    rng = np.random.default_rng(2)
    X = rng.uniform(-2, 2, (15, 2))
    Y = smooth_targets(X)
    a = fit_hyperparameters(X, Y, Kernel(RBF, 1.0, 1.0), 0.01, steps=30)
    b = fit_hyperparameters(X, Y, Kernel(RBF, 1.0, 1.0), 0.01, steps=30)
    assert a.kernel == b.kernel and a.noise == b.noise


# ---------------------------------------------------------------------------
# conditioning


def test_duplicate_rows_with_zero_noise_survive_via_jitter():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    Y = np.array([[1.0], [1.0], [2.0]])
    m = make_model(X, Y, Kernel(RBF, 1.0, 1.0), 0.0)
    mean, var = posterior_mean_var(m, np.array([0.5, 0.5]))
    assert np.all(np.isfinite(mean)) and np.isfinite(var)


def test_cholesky_factor_reproduces_kernel_matrix():
    m = make_smooth_model(noise=1e-3)
    kmat = _kernel_matrix(m.kernel, m.latent_inputs, m.latent_inputs)
    kmat += m.noise * np.eye(len(kmat))
    err = np.max(np.abs(m.chol @ m.chol.T - kmat))
    assert err < 1e-10 * np.max(np.abs(kmat))


# ---------------------------------------------------------------------------
# latent initialization and persistence


def test_pca_latents_shape_and_scale():
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((50, 6)) @ np.diag([3.0, 2.0, 1.0, 0.1, 0.1, 0.1])
    X = pca_latents(Y, 2)
    assert X.shape == (50, 2)
    assert np.allclose(X.std(axis=0), 1.0, atol=1e-12)
    assert np.array_equal(X, pca_latents(Y, 2))
    for j in range(2):
        assert X[np.argmax(np.abs(X[:, j])), j] > 0


def test_non_finite_outputs_raise_one_error_from_both_fits():
    # fit_gplvm's PCA start refuses them before its SVD, with the error
    # that fit_hyperparameters gives from make_model
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((20, 3))
    Y[7, 1] = np.nan
    with pytest.raises(ValueError, match="^outputs must be finite$"):
        fit_gplvm(Y, 2, Kernel(RBF, 1.0, 1.0), 0.01, steps=0)
    with pytest.raises(ValueError, match="^outputs must be finite$"):
        fit_hyperparameters(rng.standard_normal((20, 2)), Y, Kernel(RBF, 1.0, 1.0), 0.01,
                            steps=0)


def test_fit_gplvm_smoke_and_determinism():
    rng = np.random.default_rng(4)
    t = rng.uniform(0, 2 * np.pi, 30)
    Y = np.stack([np.cos(t), np.sin(t), 0.3 * np.cos(2 * t)], axis=1)
    a = fit_gplvm(Y, 2, Kernel(RBF, 1.0, 1.0), 0.01, steps=25, optimize_latents=True)
    b = fit_gplvm(Y, 2, Kernel(RBF, 1.0, 1.0), 0.01, steps=25, optimize_latents=True)
    assert isinstance(a, GpModel)
    assert a.latent_inputs.shape == (30, 2)
    assert np.array_equal(a.latent_inputs, b.latent_inputs)
    fixed = fit_gplvm(Y, 2, Kernel(RBF, 1.0, 1.0), 0.01, steps=0)
    assert np.array_equal(fixed.latent_inputs, pca_latents(Y, 2))


def test_save_model_writes_the_bytes_of_json_dump(tmp_path):
    # one json.dumps, written at once: the bytes json.dump writes for the
    # same document, key-sorted, with a trailing newline
    path = tmp_path / "model.json"
    save_model(make_smooth_model(noise=1e-4, seed=6), str(path))
    with open(tmp_path / "dumped.json", "w") as fh:
        json.dump(json.loads(path.read_text()), fh, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()


def test_save_load_round_trip(tmp_path):
    m = make_smooth_model(noise=1e-4, seed=6)
    p1 = tmp_path / "model.json"
    p2 = tmp_path / "model2.json"
    save_model(m, str(p1))
    save_model(m, str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    m2 = load_model(str(p1))
    z = np.array([0.3, -0.4])
    a_mean, a_var = posterior_mean_var(m, z)
    b_mean, b_var = posterior_mean_var(m2, z)
    assert np.array_equal(a_mean, b_mean)
    assert a_var == b_var
    assert m2.kernel == m.kernel


# ---------------------------------------------------------------------------
# radial derivative coefficients and the derivative pass


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_radial_coefficients_give_the_kernel_hessian(family):
    # c d is the gradient and c I + e d d^T the Hessian of k(., x) at z;
    # the Hessian is checked against differences of the gradient, r = 0
    # included
    k = Kernel(family, 0.8, 1.7)
    x = np.array([[0.3, -0.2]])
    h = 1e-6
    for z in [np.array([0.9, 0.4]), np.array([0.35, -0.1]), x[0].copy()]:
        d = z - x[0]
        c, e = _radial_coefficients(k, np.array([d @ d]))
        assert np.allclose(_kernel_grad_first(k, z[None], x)[0, 0], c[0] * d, rtol=0, atol=1e-15)
        hess = c[0] * np.eye(2) + e[0] * np.outer(d, d)
        for j in range(2):
            step = h * np.eye(2)[j]
            fd = (
                _kernel_grad_first(k, (z + step)[None], x)[0, 0]
                - _kernel_grad_first(k, (z - step)[None], x)[0, 0]
            ) / (2.0 * h)
            assert np.allclose(hess[:, j], fd, rtol=0, atol=1e-8)


def test_jacobian_batch_dz_values_are_the_batch():
    for family in (RBF, MATERN52):
        m = make_smooth_model(family=family, noise=1e-6, seed=9)
        Z = np.vstack([np.random.default_rng(10).uniform(-1.5, 1.5, (7, 2)), m.latent_inputs[:1]])
        means, covs, dmeans, dcovs = _jacobian_posterior_batch_dz(m, Z)
        ref_means, ref_covs = _jacobian_posterior_batch(m, Z)
        assert np.array_equal(means, ref_means) and np.array_equal(covs, ref_covs)
        # the Hessian of k is symmetric, and so is d mean / dz in (q, z)
        assert np.allclose(dmeans, np.swapaxes(dmeans, -1, -2), rtol=0, atol=1e-12)
        assert np.allclose(dcovs, np.swapaxes(dcovs, 1, 2), rtol=0, atol=1e-15)


def test_log_marginal_mmat_is_alpha_alpha_minus_d_kinv():
    m = make_smooth_model(noise=1e-3, seed=3)
    Yc = m.outputs - m.outputs.mean(axis=0)
    lml, grad, mmat = _log_marginal_grad_mmat(m.latent_inputs, Yc, m.kernel, m.noise)
    ref_lml, ref_grad = _log_marginal_and_grad(m.latent_inputs, Yc, m.kernel, m.noise)
    assert lml == ref_lml and np.array_equal(grad, ref_grad)
    kmat = _kernel_matrix(m.kernel, m.latent_inputs, m.latent_inputs) + m.noise * np.eye(25)
    alpha = np.linalg.solve(kmat, Yc)
    dense = alpha @ alpha.T - Yc.shape[1] * np.linalg.inv(kmat)
    assert np.allclose(mmat, dense, rtol=1e-8, atol=1e-8 * np.max(np.abs(dense)))


@pytest.mark.parametrize("jitter", [False, True])
@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_variance_trace_from_alpha_is_the_full_product(family, jitter, monkeypatch):
    # K alpha = Yc with K = K_f + s I (s the noise and any jitter), so the
    # variance gradient's trace tr(M K_f) is sum(alpha Yc) - D N - s tr(M)
    rng = np.random.default_rng(15)
    X = rng.uniform(-2.0, 2.0, (30, 2))
    noise = 1e-3
    if jitter:  # duplicate rows and zero noise: the factor needs the ladder
        X, noise = np.vstack([X, X[:5]]), 0.0
    Y = smooth_targets(X, 3) + 0.05 * rng.standard_normal((len(X), 3))
    Yc = Y - Y.mean(axis=0)
    k = Kernel(family, 0.8, 1.3)
    robust, jitters = gp._robust_cholesky, []

    def recorded(*args):
        chol, added = robust(*args)
        jitters.append(added)
        return chol, added

    monkeypatch.setattr(gp, "_robust_cholesky", recorded)
    _, grad, mmat = _log_marginal_grad_mmat(X, Yc, k, noise)
    assert (jitters[0] > 0.0) == jitter
    full = mmat * _kernel_matrix(k, X, X)
    assert abs(2.0 * grad[1] - np.sum(full)) <= 1e-12 * np.sum(np.abs(full))


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_log_marginal_likelihood_is_the_fit_objective(family):
    rng = np.random.default_rng(12)
    X = rng.uniform(-2.0, 2.0, (20, 2))
    Y = smooth_targets(X, 4) + 0.3
    k = Kernel(family, 0.8, 1.3)
    lml, _, _ = _log_marginal_grad_mmat(X, Y - Y.mean(axis=0), k, 1e-3)
    assert log_marginal_likelihood(make_model(X, Y, k, 1e-3)) == lml


# ---------------------------------------------------------------------------
# linear algebra through scipy only, in place


def test_batch_posteriors_reject_non_finite_points():
    # the batch posteriors skip scipy's finiteness scans of the factor, so
    # they check the query points themselves
    from finslergp.fields import GpField

    field = GpField(make_smooth_model())
    Z = np.array([[0.1, 0.2], [np.nan, 0.0], [0.3, -0.4]])
    for batch in (field.jacobian_batch_dz, field.jacobian_batch, field.decode_batch):
        with pytest.raises(ValueError, match="finite"):
            batch(Z)
    with pytest.raises(ValueError, match="finite"):
        field.jacobian_batch(np.array([[np.inf, 0.0]]))


def test_gp_never_factorizes_with_numpy(monkeypatch, tmp_path):
    # numpy's OpenBLAS keeps its own thread pool, which slows scipy's solves
    # that follow it; every factorization in gp goes through scipy's LAPACK
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    m = make_smooth_model(noise=1e-4, seed=4)
    path = tmp_path / "m.json"
    save_model(m, str(path))
    assert np.array_equal(load_model(str(path)).chol, m.chol)
    fit_hyperparameters(m.latent_inputs, m.outputs, Kernel(RBF, 0.8, 1.2), 1e-2, steps=3)
    fit_gplvm(m.outputs, 2, Kernel(MATERN52, 0.8, 1.2), 1e-2, steps=3, optimize_latents=True)


def test_every_solve_calls_through_gps_own_names(monkeypatch):
    # a tracer counts triangular work by rebinding gp.cho_solve and
    # gp.solve_triangular: every LAPACK solve gp makes must go through them,
    # so wrappers on gp's names and on the loaded dpotrs and dtrtrs see the
    # same columns
    from finslergp.fields import GpField
    from finslergp.gp import _posterior_mean_var_batch

    flapack, _ = lapack_blas()
    cols = {}

    def counting(name, fn):
        def wrapper(a, b, **kwargs):
            cols[name] = cols.get(name, 0) + (1 if np.ndim(b) < 2 else np.shape(b)[1])
            return fn(a, b, **kwargs)
        return wrapper

    for name in ("cho_solve", "solve_triangular"):
        monkeypatch.setattr(gp, name, counting(f"gp.{name}", getattr(gp, name)))
    for name in ("dpotrs", "dtrtrs"):
        monkeypatch.setattr(flapack, name, counting(name, getattr(flapack, name)))
    m = make_smooth_model(noise=1e-3, seed=8)  # 25 points, D = 3
    assert cols == {"gp.cho_solve": 3, "dpotrs": 3}
    Z = np.random.default_rng(9).uniform(-0.8, 0.8, (7, 2))
    GpField(m).jacobian_batch_dz(Z)  # 2q columns per point
    _posterior_mean_var_batch(m, Z)  # one column per point
    assert cols["gp.solve_triangular"] == cols["dtrtrs"] == 7 * 4 + 7
    assert cols["gp.cho_solve"] == cols["dpotrs"] == 3


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("overwrite_b", [False, True])
def test_solves_equal_scipy_linalg_bit_for_bit(order, lower, overwrite_b):
    # gp's two solves make scipy.linalg's LAPACK calls without its scans
    import scipy.linalg

    rng = np.random.default_rng(12)
    X = rng.uniform(-2.0, 2.0, (40, 2))
    kmat = _kernel_matrix(Kernel(RBF, 0.9, 1.1), X, X) + 1e-3 * np.eye(40)
    factor = np.linalg.cholesky(kmat)
    factor = np.array(factor if lower else factor.T, order=order)
    b = np.array(rng.standard_normal((40, 6)), order="F")
    for trans in (0, 1):
        got = gp.solve_triangular(factor, b.copy(order="F"), trans=trans, lower=lower,
                                  overwrite_b=overwrite_b)
        want = scipy.linalg.solve_triangular(factor, b.copy(order="F"), trans=trans,
                                             lower=lower, overwrite_b=overwrite_b)
        assert got.tobytes() == want.tobytes()
    for rhs in (b, b[:, 0]):
        got = gp.cho_solve((factor, lower), rhs.copy(order="F"), overwrite_b=overwrite_b)
        want = scipy.linalg.cho_solve((factor, lower), rhs.copy(order="F"),
                                      overwrite_b=overwrite_b)
        assert got.shape == rhs.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_against_a_singular_factor_raises(order):
    factor = np.array(np.tril(np.ones((4, 4))), order=order)
    factor[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        gp.solve_triangular(factor, np.ones((4, 2)), lower=True)


def test_lapack_blas_are_scipy_linalgs_own_modules(tmp_path):
    # in a fresh interpreter gp loads scipy's two extension modules alone,
    # and a later `import scipy.linalg` takes those same modules; where
    # scipy.linalg came first, gp takes its modules
    import sys

    assert lapack_blas() == (sys.modules["scipy.linalg._flapack"],
                                 sys.modules["scipy.linalg._fblas"])
    code = """if True:
        import sys
        from finslergp._lapack import lapack_blas
        flapack, fblas = lapack_blas()
        before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        import scipy.linalg
        from scipy.linalg import _fblas, _flapack
        print(before, scipy.linalg.lapack.dpotrf is flapack.dpotrf,
              scipy.linalg.blas.dgemm is fblas.dgemm, (_flapack, _fblas) == (flapack, fblas))
    """
    out = _python(code, tmp_path)
    assert out == "['scipy.linalg._fblas', 'scipy.linalg._flapack'] True True True"


def test_lapack_blas_name_a_missing_file(tmp_path):
    # a scipy without the extension files: no fallback, an ImportError
    # naming the module and the directory searched
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = """if True:
        from finslergp._lapack import lapack_blas
        try:
            lapack_blas()
        except ImportError as exc:
            print(exc)
    """
    out = _python(code, tmp_path, tmp_path)
    assert out.startswith("no extension module file for scipy.linalg._flapack in ")
    assert out.endswith(str(tmp_path / "scipy" / "linalg"))


def _python(code, cwd, *path):
    """The last stdout line of code run in a fresh interpreter, with path
    and the package's source tree first on its import path."""
    import os
    import subprocess
    import sys

    import finslergp

    src = os.path.dirname(os.path.dirname(os.path.abspath(finslergp.__file__)))
    env_path = os.pathsep.join([*map(str, path), src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=env_path), check=True)
    return done.stdout.splitlines()[-1]


def test_factor_and_gradient_matrix_stay_in_their_buffers():
    from finslergp.gp import _finite_cholesky, _gradient_matrix, _sqdist

    m = make_smooth_model(noise=1e-3, seed=5)
    kmat = _kernel_matrix(m.kernel, m.latent_inputs, m.latent_inputs) + m.noise * np.eye(25)
    buf = kmat.copy()
    chol = _finite_cholesky(buf)
    assert np.shares_memory(chol, buf) and chol.flags.c_contiguous
    assert np.array_equal(chol, np.tril(chol))
    assert np.allclose(chol @ chol.T, kmat, rtol=0, atol=1e-12)
    mmat = _gradient_matrix(chol, m.alpha)
    assert np.shares_memory(mmat, buf) and np.array_equal(mmat, mmat.T)
    assert _finite_cholesky(-np.eye(3)) is None
    assert _finite_cholesky(np.full((3, 3), np.nan)) is None
    # only the lower triangle is read: the fit forms no other
    lower_only = np.tril(kmat) + np.triu(np.full_like(kmat, np.nan), 1)
    assert _finite_cholesky(lower_only).tobytes() == _finite_cholesky(kmat.copy()).tobytes()
    # one coordinate at a time gives the einsum's sums exactly for q <= 2
    rng = np.random.default_rng(6)
    for q in (1, 2):
        a, b = rng.standard_normal((30, q)), rng.standard_normal((20, q))
        diff = a[:, None, :] - b[None, :, :]
        assert np.array_equal(_sqdist(a, b), np.einsum("nmq,nmq->nm", diff, diff))


# ---------------------------------------------------------------------------
# the Jacobian pass against a dense oracle


def _dense_jacobian_posteriors(m, Z, added):
    """means, covs (unclamped), dmeans and dcovs at Z from K + added I solved
    by np.linalg, the kernel Hessian built explicitly as (n, N, q, q)."""
    k, X = m.kernel, m.latent_inputs
    q = X.shape[1]
    kmat = _kernel_matrix(k, X, X) + added * np.eye(len(X))
    alpha = np.linalg.solve(kmat, m.outputs - m.outputs.mean(axis=0))
    d = Z[:, None, :] - X[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=2))
    if k.family == RBF:
        kr = k.variance * np.exp(-0.5 * r**2 / k.lengthscale**2)
        c, e, c0 = -kr / k.lengthscale**2, kr / k.lengthscale**4, k.variance / k.lengthscale**2
    else:
        u = math.sqrt(5.0) / k.lengthscale
        c = -(k.variance * u**2 / 3.0) * (1.0 + u * r) * np.exp(-u * r)
        e, c0 = (k.variance * u**4 / 3.0) * np.exp(-u * r), k.variance * u**2 / 3.0
    grads = c[..., None] * d  # (n, N, q)
    hess = e[..., None, None] * d[..., :, None] * d[..., None, :] + c[..., None, None] * np.eye(q)
    kinv_g = np.stack([np.linalg.solve(kmat, g) for g in grads])  # (n, N, q)
    means = np.einsum("nNa,ND->nDa", grads, alpha)
    covs = c0 * np.eye(q) - np.einsum("nNa,nNb->nab", grads, kinv_g)
    dmeans = np.einsum("nNac,ND->nDac", hess, alpha)
    cross = np.einsum("nNac,nNb->nabc", hess, kinv_g)
    return means, covs, dmeans, -(cross + cross.transpose(0, 2, 1, 3))


def _jitter_model(family):
    # duplicate rows and zero noise: the factor needs the jitter ladder
    rng = np.random.default_rng(14)
    X = rng.uniform(-2.0, 2.0, (16, 2))
    X = np.vstack([X, X[:4]])
    return make_model(X, smooth_targets(X), Kernel(family, 0.9, 1.3), 0.0)


@pytest.mark.parametrize("family", [RBF, MATERN52])
@pytest.mark.parametrize("q", [1, 2, 3, "jitter"])
def test_jacobian_pass_matches_dense_oracle(family, q):
    if q == "jitter":
        m = _jitter_model(family)
        # the diagonal the factor carries beyond K: one rung of the ladder
        extra = np.diag(m.chol @ m.chol.T) - m.kernel.variance
        ladder = np.array([1e-8 * 10.0**i for i in range(5)]) * m.kernel.variance
        added = ladder[np.argmin(np.abs(ladder - np.median(extra)))]
        assert added > 0.0
    else:
        # 10 inputs per latent dimension: denser data shrinks the derivative
        # variance to a thousandth of its prior, and the cancellation in
        # prior - explained alone then costs 1e-12 of the largest entry
        m = make_smooth_model(family=family, n=10 * q, q=q, noise=1e-4, seed=q)
        added = m.noise
    rng = np.random.default_rng(15)
    # points inside the data and training inputs themselves (r = 0)
    Z = np.vstack([rng.uniform(-2.0, 2.0, (6, m.dim_latent)), m.latent_inputs[:3]])
    got = _jacobian_posterior_batch_dz(m, Z)
    want = _dense_jacobian_posteriors(m, Z, added)
    want = (want[0], _clamp_psd_batch(want[1]), want[2], want[3])
    for name, g, w in zip(("means", "covs", "dmeans", "dcovs"), got, want):
        assert g.shape == w.shape, name
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name


def _clamp_by_eigh(covs):
    # the clamp with an eigendecomposition of every batch, no certificate
    sym = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    if np.all(vals[..., 0] >= 0.0):
        return sym
    vals = np.clip(vals, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", vecs, vals, vecs)


def _rotated_2x2(rng, eigenvalues):
    # R diag(eigenvalues) R^T for random rotations R, one per row
    theta = rng.uniform(0.0, math.pi, len(eigenvalues))
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    return rot @ (np.asarray(eigenvalues)[..., None] * np.swapaxes(rot, -1, -2))


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_clamp_certifies_positive_definite_2x2_batches(eigh_calls):
    rng = np.random.default_rng(61)
    a = rng.standard_normal((50, 2, 2))
    covs = a @ np.swapaxes(a, -1, -2) + 1e-3 * np.eye(2)
    covs[:, 0, 1] += 1e-9  # not symmetric: the clamp symmetrizes
    got = _clamp_psd_batch(covs)
    assert eigh_calls == []
    assert got.tobytes() == _clamp_by_eigh(covs).tobytes()


def test_clamp_at_the_margin_is_the_eigh_path(eigh_calls):
    # smaller eigenvalues just above and just below the certificate's
    # margin: the first batch is certified, the second, holding one point
    # below it, runs eigh; both give the bytes of the eigh path
    rng = np.random.default_rng(67)
    above = _rotated_2x2(rng, [(1.0, 4.0 * _PD_MARGIN)] * 8)
    below = above.copy()
    below[3] = _rotated_2x2(rng, [(1.0, 0.1 * _PD_MARGIN)])[0]
    for batch, eigh_runs in ((above, 0), (below, 1)):
        before = len(eigh_calls)
        got = _clamp_psd_batch(batch)
        assert len(eigh_calls) - before == eigh_runs
        assert got.tobytes() == _clamp_by_eigh(batch).tobytes()


def test_clamp_with_an_indefinite_point(eigh_calls):
    rng = np.random.default_rng(71)
    batch = _rotated_2x2(rng, [(2.0, 0.5)] * 5 + [(1.0, -1e-3)])
    got = _clamp_psd_batch(batch)
    assert len(eigh_calls) == 1
    assert got.tobytes() == _clamp_by_eigh(batch).tobytes()
    assert np.linalg.eigvalsh(got[-1])[0] > -1e-15
    assert np.linalg.eigvalsh(batch[-1])[0] < -9e-4


def test_clamp_other_latent_dimensions_run_eigh(eigh_calls):
    rng = np.random.default_rng(73)
    for q in (1, 3):
        a = rng.standard_normal((6, q, q))
        covs = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(q)
        assert _clamp_psd_batch(covs).tobytes() == _clamp_by_eigh(covs).tobytes()
    assert len(eigh_calls) == 4  # two per q: the clamp's and the reference's


# ---------------------------------------------------------------------------
# in-place kernel work against the formulas evaluated with temporaries


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_in_place_kernel_and_coefficients_are_the_formulas_bit_for_bit(family):
    rng = np.random.default_rng(79)
    k = Kernel(family, 0.7, 1.9)
    a, b = rng.uniform(-2.0, 2.0, (13, 2)), rng.uniform(-2.0, 2.0, (17, 2))
    r2 = _sqdist(a, b)
    assert _kernel_matrix(k, a, b).tobytes() == kernel_of_r2_formula(k, r2).tobytes()
    for hessian in (False, True):
        d, c, e = _differences(k, a, b, hessian)
        want_c, want_e = radial_coefficients_formula(k, r2)
        assert c.tobytes() == want_c.tobytes()
        assert (e is None) if not hessian else e.tobytes() == want_e.tobytes()
        assert np.array_equal(d, np.moveaxis(a[:, None, :] - b[None, :, :], -1, 0))
    # a gradient pass without dz forms G in the differences' buffer; its
    # posteriors are those of the pass with dz
    m = make_smooth_model(family, noise=1e-4, seed=3)
    plain, with_dz = _jacobian_pass(m, a, dz=False), _jacobian_pass(m, a, dz=True)
    for got, want in zip(plain, with_dz[:2]):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("latents", ["fixed", "free"])
@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_fit_objective_shares_its_exp_bit_for_bit(family, latents, monkeypatch):
    # one exp (and for matern52 one sqrt) serves the kernel and its radial
    # coefficient, and the traces share a scratch buffer: the objective and
    # its gradient are the bits of the formulation with separate formulas
    rng = np.random.default_rng(83)
    X = rng.uniform(-2.0, 2.0, (40, 2))
    Y = smooth_targets(X, 3) + 0.05 * rng.standard_normal((40, 3))
    Yc = Y - Y.mean(axis=0)
    params = np.log([0.8, 1.3, 1e-3])
    if latents == "free":
        params = np.concatenate([params, X.ravel()])
    got = gp._fit_objective(params, X, Yc, family)
    monkeypatch.setattr(gp, "_log_marginal_terms", log_marginal_terms_separate_exps)
    want = gp._fit_objective(params, X, Yc, family)
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


def test_jitter_ladder_rebuilds_the_kernel_from_the_latents(monkeypatch):
    # make_model factors the kernel in the buffer it built; when that
    # attempt fails, the next one rebuilds K from X and adds the jitter
    m = make_smooth_model(noise=1e-3, seed=5)
    factor = gp._finite_cholesky
    attempts = []

    def first_fails(kmat):
        attempts.append(kmat.copy())
        return None if len(attempts) == 1 else factor(kmat)

    monkeypatch.setattr(gp, "_finite_cholesky", first_fails)
    jittered = make_model(m.latent_inputs, m.outputs, m.kernel, m.noise)
    want = _kernel_matrix(m.kernel, m.latent_inputs, m.latent_inputs)
    diag = want.reshape(-1)[::26]
    diag += m.noise
    assert len(attempts) == 2 and attempts[0].tobytes() == want.tobytes()
    diag += gp._JITTER0 * m.kernel.variance
    assert attempts[1].tobytes() == want.tobytes()
    assert jittered.chol.tobytes() == factor(want).tobytes()


# ---------------------------------------------------------------------------
# working memory: N x N arrays per fit evaluation and model, Jacobian blocks


def _traced_peak(fn):
    """(result, peak bytes that fn allocated on top of what was live)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _memory_model_inputs(n=300):
    rng = np.random.default_rng(89)
    X = rng.uniform(-2.0, 2.0, (n, 2))
    return X, smooth_targets(X, 3) + 0.05 * rng.standard_normal((n, 3))


# the slack of a fit evaluation on top of its workspace: a block's squared
# distances' differences (with numpy's iterator buffers) or matern52's two
# block-sized temporaries, a block's finiteness mask and the small arrays
_EVALUATION_SLACK = 2 * gp._BLOCK_ENTRIES * 8 + gp._BLOCK_ENTRIES + 65536


@pytest.mark.parametrize("latents", ["fixed", "free"])
@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_fit_objective_holds_one_kernel_array(family, latents):
    # the workspace is one N x N buffer (the kernel, then its factor, then
    # M) and two row blocks; an evaluation that is handed a workspace
    # allocates no N x N array
    X, Y = _memory_model_inputs()
    n = len(X)
    Yc = Y - Y.mean(axis=0)
    params = np.log([0.8, 1.3, 1e-3])
    if latents == "free":
        params = np.concatenate([params, X.ravel()])
    gp._fit_objective(params, X, Yc, family)  # warm-up: the LAPACK load
    work = gp._workspace(n)
    blocks = work[1].nbytes + work[2].nbytes
    _, peak = _traced_peak(lambda: gp._fit_objective(params, X, Yc, family))
    assert peak <= n * n * 8 + blocks + _EVALUATION_SLACK
    _, peak = _traced_peak(lambda: gp._fit_objective(params, X, Yc, family, work))
    assert peak <= _EVALUATION_SLACK


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_make_model_holds_one_kernel_array(family):
    # the kernel is built a block of rows at a time into one N x N buffer
    # and factored there; the slack is three blocks of scratch (a block's
    # squared distances, and matern52's exp and coefficient rows), the
    # factor's finiteness mask (N^2 bytes) and the small arrays
    X, Y = _memory_model_inputs(1000)
    n = len(X)
    kernel = Kernel(family, 0.7, 1.3)
    make_model(X, Y, kernel, 1e-3)
    _, peak = _traced_peak(lambda: make_model(X, Y, kernel, 1e-3))
    assert peak <= n * n * 8 + 3 * gp._BLOCK_ENTRIES * 8 + n * n + 65536


def _fit(fit, family, X, Y, steps):
    k0 = Kernel(family, 0.8, 1.3)
    if fit == "hyperparameters":
        return fit_hyperparameters(X, Y, k0, 1e-3, steps=steps)
    return fit_gplvm(Y, 2, k0, 1e-3, steps=steps, optimize_latents=True)


@pytest.mark.parametrize("fit", ["hyperparameters", "latents"])
@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_fit_holds_one_kernel_array(family, fit):
    # one workspace per fit, which every evaluation writes into and which is
    # freed before the fitted model is built; make_model's kernel is then
    # the one N x N array
    X, Y = _memory_model_inputs()
    n = len(X)
    _fit(fit, family, X, Y, 1)  # warm-up: the LAPACK load
    blocks = 2 * gp._workspace(n)[1].nbytes
    _, peak = _traced_peak(lambda: _fit(fit, family, X, Y, 3))
    assert peak <= n * n * 8 + blocks + _EVALUATION_SLACK


@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_jitter_ladder_refills_its_one_kernel_array(family):
    # duplicated rows with zero noise: the first factorization of make_model
    # and of a fit evaluation fails, and the ladder refills the factor's
    # buffer by row blocks instead of copying in a second kernel
    X, Y = _memory_model_inputs()
    X, Y = np.vstack([X[:-20], X[:20]]), np.vstack([Y[:-20], Y[:20]])
    n = len(X)
    kernel = Kernel(family, 0.8, 1.3)
    params = np.array([math.log(0.8), math.log(1.3), -math.inf])  # noise 0
    Yc = Y - Y.mean(axis=0)
    work = gp._workspace(n)
    factor = gp._finite_cholesky
    failures = []

    def counted(kmat):
        chol = factor(kmat)
        failures.append(chol is None)
        return chol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp, "_finite_cholesky", counted)
        make_model(X, Y, kernel, 0.0)
        gp._fit_objective(params, X, Yc, family, work)
    assert failures == [True, False, True, False]  # make_model's, then the evaluation's
    _, peak = _traced_peak(lambda: make_model(X, Y, kernel, 0.0))
    assert peak <= n * n * 8 + 3 * gp._BLOCK_ENTRIES * 8 + gp._BLOCK_ENTRIES + 65536
    _, peak = _traced_peak(lambda: gp._fit_objective(params, X, Yc, family, work))
    assert peak <= _EVALUATION_SLACK


@pytest.mark.parametrize("fit", ["hyperparameters", "latents"])
@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_fit_through_the_workspace_is_the_fit_with_fresh_arrays(family, fit, monkeypatch):
    # the workspace's evaluations recompute the radial coefficient and take
    # the last trace in a reused buffer; the fitted model has the bits of
    # the fit whose evaluations allocate their own arrays
    X, Y = _memory_model_inputs(60)
    got = _fit(fit, family, X, Y, 20)
    objective = gp._fit_objective
    monkeypatch.setattr(gp, "_fit_objective",
                        lambda params, X, Yc, family, work: objective(params, X, Yc, family))
    want = _fit(fit, family, X, Y, 20)
    assert got.kernel == want.kernel and got.noise == want.noise
    for name in ("latent_inputs", "chol", "alpha"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_finite_cholesky_checks_every_row_with_a_block_mask():
    # dpotrf reports success on these two inputs, so only the finiteness
    # check returns None; it reads the factor a row block at a time
    from finslergp.gp import _finite_cholesky

    n = 1000
    for i, value in ((n - 1, np.nan), (0, np.inf)):
        kmat = np.eye(n) + 0.01
        kmat[i, i] = value
        assert _finite_cholesky(kmat) is None
    kmat = np.eye(n) + 0.01
    _finite_cholesky(kmat.copy())  # warm-up: the LAPACK load
    chol, peak = _traced_peak(lambda: _finite_cholesky(kmat))
    assert chol is not None and np.shares_memory(chol, kmat)
    assert peak <= gp._BLOCK_ENTRIES + 65536


@pytest.mark.parametrize("dz", [False, True])
def test_jacobian_pass_memory_does_not_grow_with_the_points(dz):
    X, Y = _memory_model_inputs()
    m = make_model(X, Y, Kernel(RBF, 0.7, 1.3), 1e-3)
    rows = gp._BLOCK_ENTRIES // len(X)
    rng = np.random.default_rng(97)
    excess = []
    for n in (rows, 20 * rows):
        Z = rng.uniform(-2.0, 2.0, (n, 2))
        out, peak = _traced_peak(lambda: _jacobian_pass(m, Z, dz))
        excess.append(peak - sum(a.nbytes for a in out))
    # beyond its outputs, 20 blocks of points take what one block takes
    assert excess[1] <= 1.1 * excess[0]


@pytest.mark.parametrize("dz", [False, True])
@pytest.mark.parametrize("family", [RBF, MATERN52])
def test_blocked_jacobian_pass_is_the_unblocked_and_per_point_pass(family, dz, monkeypatch):
    # at N = 500 a split batch moves the covariances in the last bits, as
    # the triangular solve's column count does; the means are a point's
    # own dgemm rows, the same bits in any batch
    X, Y = _memory_model_inputs(500)
    m = make_model(X, Y, Kernel(family, 0.7, 1.3), 1e-3)
    rows = gp._BLOCK_ENTRIES // len(X)
    Z = np.random.default_rng(101).uniform(-2.2, 2.2, (2 * rows + 1, 2))
    blocked = _jacobian_pass(m, Z, dz)
    per_point = [np.concatenate(a) for a in zip(*(_jacobian_pass(m, z[None], dz) for z in Z))]
    monkeypatch.setattr(gp, "_BLOCK_ENTRIES", len(Z) * len(X))
    unblocked = _jacobian_pass(m, Z, dz)
    for want in (unblocked, per_point):
        for i, (got, ref) in enumerate(zip(blocked, want)):
            if i in (0, 2):  # means and dmeans
                assert got.tobytes() == ref.tobytes()
            else:
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
