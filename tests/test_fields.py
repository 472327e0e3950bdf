"""Field adapters: analytic test surfaces and the fitted-model wrapper."""

import math

import numpy as np
import pytest

from finslergp.experiments import comparison_entries
from finslergp.fields import (
    ConstantField,
    EuclideanField,
    GpField,
    JacobianPosterior,
    SphereField,
    SyntheticField,
    as_field,
    latent_lattice,
    padded_box,
    sphere_chart,
)
from finslergp.geodesic import DiscreteCurve, export_curve_csv, grid_initialize, minimize_energy
from finslergp.gp import (
    MATERN52,
    RBF,
    Kernel,
    make_model,
)
from finslergp.measure import volume_field

from oracles import jacobian_posterior_closed_form, sphere_chart_inverse


def test_sphere_chart_unit_norm_and_inverse():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = np.array([rng.uniform(-np.pi, np.pi), rng.uniform(0.05, np.pi - 0.05)])
        x = sphere_chart(z)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-14
        assert np.allclose(sphere_chart_inverse(x), z, atol=1e-12)


def test_sphere_jacobian_matches_finite_differences():
    field = SphereField()
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(20):
        z = np.array([rng.uniform(-3.0, 3.0), rng.uniform(0.4, np.pi - 0.4)])
        jac = field.jacobian_posterior(z)
        fd = np.empty((3, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (sphere_chart(z + e) - sphere_chart(z - e)) / (2.0 * h)
        assert np.allclose(jac.mean, fd, atol=1e-8)
        assert np.all(jac.cov == 0.0)


def test_sphere_round_metric():
    # J^T J = diag(sin^2 polar, 1), the round metric in angular coordinates
    field = SphereField()
    for t, p in [(0.3, 1.2), (-2.0, 0.5), (1.7, 2.6)]:
        jac = field.jacobian_posterior(np.array([t, p]))
        g = jac.mean.T @ jac.mean
        assert np.allclose(g, np.diag([np.sin(p) ** 2, 1.0]), atol=1e-14)


def test_sphere_latent_box_margins():
    lo, hi = SphereField(polar_margin=0.25).latent_box()
    assert np.allclose(lo, [-np.pi, 0.25])
    assert np.allclose(hi, [np.pi, np.pi - 0.25])


def test_euclidean_field_identity():
    f = EuclideanField(dim=3, box=4.0)
    jac = f.jacobian_posterior(np.zeros(3))
    assert np.array_equal(jac.mean, np.eye(3))
    assert np.array_equal(jac.cov, np.zeros((3, 3)))
    lo, hi = f.latent_box()
    assert np.array_equal(lo, [-4.0] * 3) and np.array_equal(hi, [4.0] * 3)
    means, covs = f.jacobian_batch(np.zeros((5, 3)))
    assert means.shape == (5, 3, 3) and covs.shape == (5, 3, 3)


def test_constant_field_broadcasts():
    jac = JacobianPosterior(
        mean=np.arange(6.0).reshape(3, 2), cov=np.eye(2), dim_data=3
    )
    f = ConstantField(jac, box=1.0)
    assert f.latent_dim == 2 and f.data_dim == 3
    means, covs = f.jacobian_batch(np.zeros((4, 2)))
    assert means.shape == (4, 3, 2)
    assert all(np.array_equal(means[i], jac.mean) for i in range(4))
    assert all(np.array_equal(covs[i], jac.cov) for i in range(4))


def test_synthetic_field_psd_and_smooth():
    f = SyntheticField(seed=3, data_dim=6, noise_floor=0.05)
    rng = np.random.default_rng(4)
    for _ in range(25):
        z = rng.uniform(-2.0, 2.0, 2)
        jac = f.jacobian_posterior(z)
        assert jac.mean.shape == (6, 2)
        evals = np.linalg.eigvalsh(jac.cov)
        assert np.all(evals >= 0.05 - 1e-12)
        # smoothness: nearby points give nearby posteriors
        near = f.jacobian_posterior(z + 1e-5)
        assert np.allclose(near.mean, jac.mean, atol=1e-3)
        assert np.allclose(near.cov, jac.cov, atol=1e-3)


def test_synthetic_field_seed_determinism():
    a, b = SyntheticField(seed=7), SyntheticField(seed=7)
    z = np.array([0.3, -1.1])
    assert np.array_equal(a.jacobian_posterior(z).mean, b.jacobian_posterior(z).mean)
    assert np.array_equal(a.jacobian_posterior(z).cov, b.jacobian_posterior(z).cov)


def test_synthetic_batch_matches_loop():
    f = SyntheticField(seed=2)
    Z = np.random.default_rng(5).uniform(-1.5, 1.5, (7, 2))
    means, covs = f.jacobian_batch(Z)
    for i, z in enumerate(Z):
        jac = f.jacobian_posterior(z)
        assert np.array_equal(means[i], jac.mean)
        assert np.array_equal(covs[i], jac.cov)


def test_as_field_wraps_models(gp_model_2d):
    f = as_field(gp_model_2d)
    assert isinstance(f, GpField)
    assert f.latent_dim == 2 and f.data_dim == 4
    z = np.array([0.2, -0.4])
    jac = jacobian_posterior_closed_form(gp_model_2d, z)
    got = f.jacobian_posterior(z)
    assert np.allclose(got.mean, jac.mean) and np.allclose(got.cov, jac.cov)
    lo, hi = f.latent_box()
    assert np.all(lo < hi)


def test_as_field_passthrough_and_rejection():
    f = EuclideanField()
    assert as_field(f) is f
    with pytest.raises(TypeError):
        as_field(3.14)


def test_gp_field_batch_consistency(gp_model_2d):
    f = as_field(gp_model_2d)
    Z = np.random.default_rng(6).uniform(-1.0, 1.0, (6, 2))
    means, covs = f.jacobian_batch(Z)
    for i, z in enumerate(Z):
        jac = f.jacobian_posterior(z)
        assert np.allclose(means[i], jac.mean, atol=1e-12)
        assert np.allclose(covs[i], jac.cov, atol=1e-12)


# ---------------------------------------------------------------------------
# batches and their derivative pass


def _gp_field(family):
    rng = np.random.default_rng(31)
    X = rng.uniform(-1.5, 1.5, (30, 2))
    Y = np.column_stack([np.sin(X @ w + j) for j, w in enumerate(rng.normal(0, 1, (4, 2)))])
    return GpField(make_model(X, Y, Kernel(family, 0.9, 1.3), 1e-4))


DZ_FIELDS = {
    "gp_rbf": lambda: _gp_field(RBF),
    "gp_matern52": lambda: _gp_field(MATERN52),
    "sphere": SphereField,
    "synthetic": lambda: SyntheticField(seed=4, latent_dim=3, data_dim=5),
    "euclidean": lambda: EuclideanField(dim=3),
    "constant": lambda: ConstantField(
        JacobianPosterior(mean=np.arange(6.0).reshape(3, 2), cov=np.eye(2), dim_data=3)
    ),
}


@pytest.mark.parametrize("name", sorted(DZ_FIELDS))
def test_batch_dz_matches_central_differences(name):
    f = DZ_FIELDS[name]()
    q = f.latent_dim
    lo, hi = f.latent_box()
    Z = np.random.default_rng(32).uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), (6, q))
    if isinstance(f, GpField):
        # points that coincide with training inputs, where r = 0
        Z = np.vstack([Z, f.model.latent_inputs[:2]])
    means, covs, dmeans, dcovs = f.jacobian_batch_dz(Z)
    ref_means, ref_covs = f.jacobian_batch(Z)
    assert np.array_equal(means, ref_means) and np.array_equal(covs, ref_covs)
    assert dmeans.shape == (len(Z), f.data_dim, q, q)
    assert dcovs.shape == (len(Z), q, q, q)
    h = 1e-6
    for j in range(q):
        e = h * np.eye(q)[j]
        mp, cp = f.jacobian_batch(Z + e)
        mm, cm = f.jacobian_batch(Z - e)
        fd_means = (mp - mm) / (2.0 * h)
        fd_covs = (cp - cm) / (2.0 * h)
        assert np.max(np.abs(dmeans[..., j] - fd_means)) <= 1e-6 * (1.0 + np.max(np.abs(fd_means)))
        assert np.max(np.abs(dcovs[..., j] - fd_covs)) <= 1e-6 * (1.0 + np.max(np.abs(fd_covs)))


@pytest.mark.parametrize("name", ["sphere", "euclidean"])
def test_batch_rows_equal_single_point_posteriors(name):
    f = DZ_FIELDS[name]()
    lo, hi = f.latent_box()
    Z = np.random.default_rng(33).uniform(lo, hi, (9, f.latent_dim))
    means, covs = f.jacobian_batch(Z)
    for i, z in enumerate(Z):
        jac = f.jacobian_posterior(z)
        assert np.array_equal(means[i], jac.mean)
        assert np.array_equal(covs[i], jac.cov)


def test_one_point_posterior_is_the_batch_row_clamped_once():
    # JacobianPosterior clamps a covariance from outside once; a field's
    # one-point posterior takes its batch row as it is, since a second clamp
    # can move a row whose clamp reached the eigendecomposition
    rng = np.random.default_rng(35)
    for trial in range(400):
        q = int(rng.integers(1, 5))
        basis = np.linalg.qr(rng.standard_normal((q, q)))[0]
        vals = rng.uniform(0.1, 2.0, q)
        if trial % 2:
            vals[0] = -rng.uniform(0.01, 1.0)
        cov = basis @ np.diag(vals) @ basis.T
        field = ConstantField(JacobianPosterior(rng.standard_normal((3, q)), cov, 3))
        assert np.linalg.eigvalsh(field.jac.cov)[0] >= -1e-12
        z = rng.uniform(-1.0, 1.0, q)
        post = field.jacobian_posterior(z)
        means, covs = field.jacobian_batch(z)
        assert post.mean.tobytes() == means[0].tobytes() and post.dim_data == 3
        assert post.cov.tobytes() == covs[0].tobytes() == field.jac.cov.tobytes()


def test_sphere_batch_equals_chart_formula():
    Z = np.random.default_rng(34).uniform([-np.pi, 0.3], [np.pi, np.pi - 0.3], (11, 2))
    means, covs = SphereField().jacobian_batch(Z)
    for (t, p), mean in zip(Z, means):
        st, ct, sp, cp = math.sin(t), math.cos(t), math.sin(p), math.cos(p)
        assert np.array_equal(mean, [[-st * sp, ct * cp], [ct * sp, st * cp], [0.0, -sp]])
    assert not np.any(covs)


def test_synthetic_batch_equals_per_point_formula():
    # the trigonometric field evaluated one point at a time, as a reference
    # for the vectorized pass: same arithmetic, so the same bits
    for seed, q, d in [(2, 2, 8), (5, 3, 17), (9, 2, 31)]:
        f = SyntheticField(seed=seed, latent_dim=q, data_dim=d)
        Z = np.random.default_rng(seed).uniform(-2.5, 2.5, (13, q))
        means, covs = f.jacobian_batch(Z)
        for i, z in enumerate(Z):
            mean = f._amp_mean * np.sin(f._freq_mean @ z + f._phase_mean)
            root = np.sin(f._freq_cov @ z + f._phase_cov)
            cov = root @ root.T / q + f.noise_floor * np.eye(q)
            assert np.array_equal(means[i], mean)
            assert np.array_equal(covs[i], cov)


def test_padded_box_and_latent_lattice_match_the_inline_margin(gp_model_2d):
    # the margin rule and the x-major lattice that grid initialization and
    # volume fields used to build for themselves, bit for bit
    fields = [SyntheticField(seed=1, box=1.3), SphereField(), EuclideanField(box=0.7),
              GpField(gp_model_2d)]
    for field in fields:
        lo, hi = field.latent_box()
        span = hi - lo
        lo, hi = lo - 0.1 * span, hi + 0.1 * span
        got_lo, got_hi = padded_box(field)
        assert got_lo.tobytes() == lo.tobytes() and got_hi.tobytes() == hi.tobytes()
        for grid in (2, 7):
            xs = np.linspace(lo[0], hi[0], grid)
            ys = np.linspace(lo[1], hi[1], grid)
            want = np.array([[x, y] for x in xs for y in ys])
            got = latent_lattice(field, grid)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "dim, grid, message",
    [(3, 4, "latent lattices are only defined for 2-d"), (1, 4, "latent lattices are only"),
     (2, 1, "grid must be at least 2"), (2, 0, "grid must be at least 2")],
)
def test_latent_lattice_is_the_one_lattice_check(dim, grid, message):
    # grid initialization and volume fields raise the lattice's own error,
    # grid initialization before it compares the (planar) endpoints with
    # the field's box
    field = EuclideanField(dim)
    with pytest.raises(ValueError, match=message):
        latent_lattice(field, grid)
    with pytest.raises(ValueError, match=message):
        grid_initialize(field, np.full(2, -0.5), np.full(2, 0.5), grid=grid)
    with pytest.raises(ValueError, match=message):
        volume_field(field, grid=grid)


def test_decode_batch_is_the_per_point_decoding():
    rng = np.random.default_rng(8)
    Z = np.column_stack([rng.uniform(-math.pi, math.pi, 40), rng.uniform(0.3, 2.8, 40)])
    got = SphereField().decode_batch(Z)
    assert got.shape == (40, 3)
    assert got.tobytes() == np.array([sphere_chart(z) for z in Z]).tobytes()
    assert SphereField().decode_batch(Z[0]).shape == (1, 3)
    flat = EuclideanField().decode_batch(Z)
    assert np.array_equal(flat, Z) and flat is not Z


class _ProtocolField:
    """Only what a field must define: dimensions, the two batches, the box
    and (optionally) a decoder."""

    latent_dim = 2
    data_dim = 8

    def __init__(self):
        self._inner = SyntheticField(seed=4)

    def jacobian_batch(self, Z):
        return self._inner.jacobian_batch(Z)

    def jacobian_batch_dz(self, Z):
        return self._inner.jacobian_batch_dz(Z)

    def latent_box(self):
        return self._inner.latent_box()

    def decode_batch(self, Z):
        return 2.0 * np.atleast_2d(Z)


def test_a_field_needs_only_the_protocol(tmp_path):
    f = _ProtocolField()
    assert as_field(f) is f
    entries = comparison_entries(f, [((-0.8, 0.3), (0.9, -0.2))], n_points=9, grid=6,
                                 max_iter=200)
    assert [row.metric_kind for row, _ in entries] == ["riemann", "finsler", "euclid"]
    for row, curve in entries:
        assert math.isfinite(row.length_ambient) and row.mean_variance == 0.0
        assert row.length_finsler <= row.length_riemann * (1.0 + 1e-12)
    export_curve_csv(str(tmp_path / "c.csv"), entries[0][1], f)
    assert (tmp_path / "c.csv").read_text().splitlines()[0] == "t,z_1,z_2,f_1,f_2"
    assert volume_field(f, grid=3, K=16).grid_points.shape == (9, 2)


# every field of a 2-d latent space, given 3-d points
WIDTH_FIELDS = {
    "gp": lambda: _gp_field(RBF),
    "euclidean": EuclideanField,
    "constant": lambda: ConstantField(
        JacobianPosterior(mean=np.arange(6.0).reshape(3, 2), cov=np.eye(2), dim_data=3)
    ),
    "sphere": SphereField,
    "synthetic": SyntheticField,
}


@pytest.mark.parametrize("name", sorted(WIDTH_FIELDS))
def test_points_of_the_wrong_width_raise(name):
    f = WIDTH_FIELDS[name]()
    assert f.latent_dim == 2
    Z = np.full((4, 3), 0.5)
    curve = DiscreteCurve(np.linspace([0.5, 0.5, 0.5], [1.0, 1.5, 0.5], 5))
    calls = {
        "jacobian_batch": lambda: f.jacobian_batch(Z),
        "jacobian_batch_dz": lambda: f.jacobian_batch_dz(Z),
        "jacobian_posterior": lambda: f.jacobian_posterior(Z[0]),
        "minimize_energy": lambda: minimize_energy(f, curve, "riemann"),
    }
    if hasattr(f, "decode_batch"):
        calls["decode_batch"] = lambda: f.decode_batch(Z)
    for call in calls.values():
        with pytest.raises(ValueError, match="latent dimension 2"):
            call()
