"""Operational acceptance checks.

Each test verifies one numbered shipping requirement end to end and prints
a single summary line on success; a pytest failure is the FAIL line. Run
with `pytest tests/test_acceptance.py -v -s` to see the summaries inline.
Every randomized check uses a pinned seed so the outcome is reproducible.
"""

import math
import time

import numpy as np
import pytest

from finslergp.experiments import (
    bound_sweep,
    make_truncation_ensemble,
    truncation_sweep,
)
from finslergp.fields import SphereField, SyntheticField
from finslergp.geodesic import DiscreteCurve, curve_energy, geodesic_between
from finslergp.gp import JacobianPosterior
from finslergp.measure import bh_volume, indicatrix, volume_ratio_bound
from finslergp.metric import (
    MetricPoint,
    finsler_norm,
    fundamental_form,
    riemannian_norm,
)
from finslergp.randmat import WishartSpec, expected_norm_mc

from oracles import central_norm_gap, convergence_violations

SEED = 20260819


def _random_point(rng, q=None, d=None):
    """One random Jacobian law (D in 1..100, q in 1..5) and a unit direction."""
    d = int(rng.integers(1, 101)) if d is None else d
    q = int(rng.integers(1, 6)) if q is None else q
    mean = rng.uniform(-1.0, 1.0, size=(d, q))
    a = rng.standard_normal((q, q)) / math.sqrt(q)
    cov = a.T @ a + 0.1 * np.eye(q)
    v = rng.standard_normal(q)
    v /= np.linalg.norm(v)
    return MetricPoint(JacobianPosterior(mean=mean, cov=cov, dim_data=d)), v


@pytest.fixture(scope="module")
def sweep_10k():
    t0 = time.perf_counter()
    report = bound_sweep(n_specs=10_000, seed=0)
    return report, time.perf_counter() - t0


def test_criterion_01_norm_matches_monte_carlo_mean():
    # closed-form norm vs the sample mean of 1e6 projected-Jacobian draws
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(50):
        p, v = _random_point(rng)
        spec = WishartSpec(dof=p.dim_data, scale=p.jac.cov, mean_jacobian=p.jac.mean)
        mc, se = expected_norm_mc(spec, v, n_samples=1_000_000, rng_seed=SEED + i)
        dev = abs(finsler_norm(p, v) - mc) / se
        worst = max(worst, dev)
        assert dev <= 4.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 01 PASS: 50 specs x 1e6 draws, worst |norm - mc| = "
          f"{worst:.2f} se (limit 4), {elapsed:.1f}s")


def test_criterion_02_central_isotropic_plane_value():
    # zero mean, identity covariance, two outputs: the norm of any unit
    # vector is sqrt(pi/2), the mean of a chi distribution with 2 dof
    target = math.sqrt(math.pi / 2.0)
    worst = 0.0
    for q in (1, 2, 5):
        rng = np.random.default_rng(SEED + q)
        p = MetricPoint(JacobianPosterior(mean=np.zeros((2, q)), cov=np.eye(q), dim_data=2))
        for _ in range(5):
            v = rng.standard_normal(q)
            v /= np.linalg.norm(v)
            worst = max(worst, abs(finsler_norm(p, v) - target))
    assert worst < 1e-10
    print(f"criterion 02 PASS: central D=2 norm = sqrt(pi/2) +/- {worst:.2e} "
          f"(limit 1e-10)")


def test_criterion_03_sandwich_holds_on_ten_thousand_specs(sweep_10k):
    report, elapsed = sweep_10k
    assert report.trials["norm_sandwich"] == 10_000
    assert report.counts["norm_sandwich"] == 0
    assert elapsed < 30.0
    print(f"criterion 03 PASS: 0/10000 sandwich violations at 1e-9 slack, "
          f"{elapsed:.1f}s")


def test_criterion_04_norm_gap_range_and_bound(sweep_10k):
    report, _ = sweep_10k
    assert report.trials["norm_gap_range"] == 10_000
    assert report.counts["norm_gap_range"] == 0
    assert report.counts["norm_gap_jensen"] == 0
    print("criterion 04 PASS: 0/10000 gap range or bound violations")


def test_criterion_05_truncation_convergence():
    t0 = time.perf_counter()
    dims = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    ens = make_truncation_ensemble(n_specs=12, d_max=1024, q=2, seed=0)
    rows = truncation_sweep(ens, dims, v_samples=64, seed=0)

    gaps = [r.gap_norm for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # strictly decreasing
    for r in rows:
        assert -1e-12 <= r.gap_norm <= r.bound + 1e-9
        assert r.gap_times_d <= 1.0 + 1e-12
        assert r.gap_times_d <= 1.0 + ens.m_constant
    # the scaled gap levels off: no dyadic step beyond D=8 grows it by
    # more than 2%, and the plateau never exceeds the scale-free cap of 1
    scaled = [r.gap_times_d for r in rows if r.d >= 8]
    for a, b in zip(scaled, scaled[1:]):
        assert b <= a * 1.02
    assert convergence_violations(rows, ens.m_constant) == {
        "trunc_gap_range": 0,
        "trunc_gap_scaled": 0,
    }

    central = make_truncation_ensemble(n_specs=12, d_max=2, q=2, seed=0, central=True)
    row2 = truncation_sweep(central, [2], v_samples=64, seed=0)[0]
    target = 1.0 - math.sqrt(math.pi / 4.0)
    assert abs(row2.gap_norm - target) < 1e-6
    assert abs(central_norm_gap(2) - target) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 05 PASS: gap {gaps[0]:.4f} -> {gaps[-1]:.6f} over D=2..1024, "
          f"D*gap <= {max(r.gap_times_d for r in rows):.4f}, central D=2 gap = "
          f"{row2.gap_norm:.7f} vs 1-sqrt(pi/4), {elapsed:.1f}s")


def test_criterion_06_functional_and_volume_orderings(sweep_10k):
    report, _ = sweep_10k
    assert report.trials["curve_length_ordering"] == 1_000
    assert report.trials["volume_ordering"] == 1_000
    for name in (
        "curve_length_ordering",
        "curve_energy_ordering",
        "curve_length_energy",
        "curve_gap_bounds",
        "volume_ordering",
        "volume_gap_bound",
    ):
        assert report.counts[name] == 0, name
    print("criterion 06 PASS: 0 violations on 1000 curves and 1000 volume points")


def test_criterion_07_energy_gap_equals_integrated_variance():
    # E_riemann - E_finsler integrates Var[||J v||] along the curve; the
    # Monte-Carlo estimate of that variance must agree within 4 se
    rng = np.random.default_rng(SEED)
    n_mc = 40_000
    worst = 0.0
    for c in range(20):
        fld = SyntheticField(
            seed=int(rng.integers(0, 2**31)),
            latent_dim=int(rng.integers(2, 4)),
            data_dim=int(rng.integers(2, 25)),
        )
        q = fld.latent_dim
        a = rng.uniform(-1.2, 1.2, size=q)
        b = rng.uniform(-1.2, 1.2, size=q)
        bow = rng.normal(0.0, 0.3, size=q)
        t = np.linspace(0.0, 1.0, 12)[:, None]
        curve = DiscreteCurve((1 - t) * a + t * b + np.sin(np.pi * t) * bow)

        analytic = curve_energy(fld, curve, "riemann") - curve_energy(fld, curve, "finsler")
        dt = 1.0 / (curve.n_points - 1)
        mc_total = 0.0
        se_sq = 0.0
        for mid, vel in zip(curve.midpoints, curve.velocities):
            post = fld.jacobian_posterior(mid)
            mu = post.mean @ vel
            std = math.sqrt(max(float(vel @ post.cov @ vel), 0.0))
            draws = mu + std * rng.standard_normal((n_mc, post.dim_data))
            z = np.sqrt(np.einsum("ij,ij->i", draws, draws))
            var = float(z.var(ddof=1))
            m4 = float(np.mean((z - z.mean()) ** 4))
            mc_total += var * dt
            se_sq += (dt**2) * max(m4 - var**2, 0.0) / n_mc
        dev = abs(analytic - mc_total) / math.sqrt(se_sq)
        worst = max(worst, dev)
        assert dev <= 4.0
    print(f"criterion 07 PASS: 20 curves, worst |energy gap - mc variance| = "
          f"{worst:.2f} se (limit 4)")


def test_criterion_08_fundamental_tensor():
    # the half-Hessian of the squared norm must be positive definite and
    # reproduce the squared norm as its quadratic form at v
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    min_eig = np.inf
    for _ in range(200):
        p, v = _random_point(rng)
        g = fundamental_form(p, v)
        eigs = np.linalg.eigvalsh(g)
        min_eig = min(min_eig, float(eigs[0]))
        assert eigs[0] > 0.0
        f_sq = finsler_norm(p, v) ** 2
        rel = abs(float(v @ g @ v) - f_sq) / f_sq
        worst_rel = max(worst_rel, rel)
        assert rel < 1e-4
    print(f"criterion 08 PASS: 200 specs, min eigenvalue {min_eig:.3e} > 0, "
          f"worst quadratic-form error {worst_rel:.2e} (limit 1e-4)")


def test_criterion_09_sphere_geodesics_match_great_circles():
    t0 = time.perf_counter()
    field = SphereField()
    rng = np.random.default_rng(SEED)

    def embed(z):
        t, p = z
        return np.array(
            [math.cos(t) * math.sin(p), math.sin(t) * math.sin(p), math.cos(p)]
        )

    worst_len = 0.0
    worst_spread = 0.0
    done = 0
    while done < 10:
        a = np.array([rng.uniform(0.4, 2.8), rng.uniform(0.6, 2.5)])
        b = np.array([rng.uniform(0.4, 2.8), rng.uniform(0.6, 2.5)])
        arc = math.acos(float(np.clip(embed(a) @ embed(b), -1.0, 1.0)))
        if not 0.4 <= arc <= 2.2:
            continue
        res = geodesic_between(field, a, b, "riemann", n_points=33,
                               max_iter=2000, tol=1e-9)
        assert res.converged
        rel = abs(res.length - arc) / arc
        worst_len = max(worst_len, rel)
        assert rel < 0.01
        speeds = np.array(
            [
                finsler_norm(MetricPoint(field.jacobian_posterior(m)), v)
                for m, v in zip(res.curve.midpoints, res.curve.velocities)
            ]
        )
        spread = float((speeds.max() - speeds.min()) / speeds.mean())
        worst_spread = max(worst_spread, spread)
        assert spread < 0.05
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 09 PASS: 10 great-circle pairs, worst length error "
          f"{100 * worst_len:.3f}% (limit 1%), worst speed spread "
          f"{100 * worst_spread:.2f}% (limit 5%), {elapsed:.1f}s")


def test_criterion_10_high_dimension_geodesics_agree(gp_dense_model):
    # with 64 output dimensions the two optimized geodesic lengths differ
    # by less than 1% on every endpoint pair
    t0 = time.perf_counter()
    pairs = [
        ((-1.5, -1.5), (1.5, 1.5)),
        ((-1.5, 1.5), (1.5, -1.5)),
        ((-1.8, 0.0), (1.8, 0.0)),
        ((0.0, -1.8), (0.0, 1.8)),
        ((-1.2, 0.8), (1.2, -0.8)),
    ]
    worst = 0.0
    for a, b in pairs:
        res_r = geodesic_between(gp_dense_model, np.array(a), np.array(b), "riemann",
                                 n_points=17, grid=6, max_iter=800, tol=1e-7)
        res_f = geodesic_between(gp_dense_model, np.array(a), np.array(b), "finsler",
                                 n_points=17, grid=6, max_iter=800, tol=1e-7)
        rel = abs(res_r.length - res_f.length) / res_r.length
        worst = max(worst, rel)
        assert rel < 0.01
    elapsed = time.perf_counter() - t0
    print(f"criterion 10 PASS: 5 pairs at D=64, worst geodesic length "
          f"difference {100 * worst:.3f}% (limit 1%), {elapsed:.1f}s")


def test_criterion_11_volume_quadrature_and_ratio_bound():
    # the polar quadrature volume must match the closed-form ellipsoid
    # volume sqrt(det E[G]) within 0.5% at 256 angles, and the relative
    # volume gap must sit in [0, 1) under its per-point bound
    rng = np.random.default_rng(SEED)
    worst_quad = 0.0
    worst_ratio = -1.0
    for _ in range(200):
        p, _ = _random_point(rng, q=2)
        v_r = bh_volume(p, K=256, metric_kind="riemann")
        expected_gram = p.jac.mean.T @ p.jac.mean + p.dim_data * p.jac.cov
        oracle = math.sqrt(float(np.linalg.det(expected_gram)))
        rel = abs(v_r - oracle) / oracle
        worst_quad = max(worst_quad, rel)
        assert rel < 0.005
        v_f = bh_volume(p, K=256, metric_kind="finsler")
        ratio = (v_r - v_f) / v_r
        worst_ratio = max(worst_ratio, ratio)
        assert 0.0 <= ratio < 1.0
        assert ratio <= volume_ratio_bound(p, K=256) + 1e-9
    print(f"criterion 11 PASS: 200 points, worst quadrature error "
          f"{100 * worst_quad:.4f}% (limit 0.5%), ratios in [0, "
          f"{worst_ratio:.4f}] under the pointwise bound")


def test_criterion_12_indicatrix_nesting():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        p, _ = _random_point(rng, q=2)
        r_r = indicatrix(p, K=64, metric_kind="riemann").radii
        r_f = indicatrix(p, K=64, metric_kind="finsler").radii
        r_a = indicatrix(p, K=64, metric_kind="alpha_sigma").radii
        assert np.all(r_r <= r_f * (1.0 + 1e-12))
        assert np.all(r_f <= r_a * (1.0 + 1e-12))
    print("criterion 12 PASS: 200 specs x 64 angles, unit-ball boundaries "
          "nested riemann <= finsler <= alpha-sigma")
