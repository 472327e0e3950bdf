"""Verification-harness tests: truncation sweep, violation sweep, geodesic
comparison tables."""

import math

import numpy as np
import pytest
import scipy.linalg

from finslergp.experiments import (
    ComparisonRow,
    ConvergenceRow,
    bound_sweep,
    comparison_entries,
    export_comparison_csv,
    export_convergence_csv,
    export_violations_csv,
    make_truncation_ensemble,
    truncation_sweep,
    _draw_sweep,
    _smallest_noncentrality,
    _spec_values,
)
from finslergp import experiments, metric
from finslergp.fields import ConstantField, GpField, SphereField, SyntheticField
from finslergp.geodesic import curve_length
from finslergp.gp import JacobianPosterior, posterior_mean_var
from finslergp.metric import (
    MetricPoint,
    alpha_sigma_norm,
    finsler_norm,
    omega,
    relative_gap,
    riemannian_norm,
)
from finslergp.specfun import kummer_1f1_array

from oracles import (
    bound_sweep_scalar,
    central_norm_gap,
    convergence_violations,
    geodesic_comparison,
    truncation_sweep_per_kind,
)

DYADIC = [2, 4, 8, 16, 32, 64, 128, 256]
DYADIC_1024 = [*DYADIC, 512, 1024]


def test_central_gap_matches_lgamma_oracle():
    # direct lgamma evaluation, independent of the shared ratio helper
    for d in [1, 2, 3, 5, 10, 50, 400]:
        want = 1.0 - math.sqrt(2.0 / d) * math.exp(
            math.lgamma(0.5 * (d + 1)) - math.lgamma(0.5 * d)
        )
        assert central_norm_gap(d) == pytest.approx(want, rel=1e-13)
    assert central_norm_gap(2) == pytest.approx(1.0 - math.sqrt(math.pi) / 2.0, abs=1e-14)
    with pytest.raises(ValueError):
        central_norm_gap(0)


def test_ensemble_construction_and_reproducibility():
    a = make_truncation_ensemble(n_specs=3, d_max=32, seed=9)
    b = make_truncation_ensemble(n_specs=3, d_max=32, seed=9)
    c = make_truncation_ensemble(n_specs=3, d_max=32, seed=10)
    assert np.array_equal(a.means, b.means) and np.array_equal(a.covs, b.covs)
    assert not np.array_equal(a.means, c.means)
    assert a.means.shape == (3, 32, 2) and a.covs.shape == (3, 2, 2)
    assert np.all(np.abs(a.means) <= 1.0)
    for s in range(3):
        assert np.linalg.eigvalsh(a.covs[s])[0] >= 0.1 - 1e-12
    central = make_truncation_ensemble(n_specs=2, d_max=16, seed=0, central=True)
    assert not central.means.any()


def test_m_constant_is_the_per_spec_loop_bit_for_bit(monkeypatch):
    # one batched eigvalsh, taken on first access only, gives the value of
    # the per-spec loop
    for seed in (0, 5):
        ens = make_truncation_ensemble(n_specs=12, d_max=1024, seed=seed)
        worst = 0.0
        for s in range(ens.n_specs):
            row_sq = float(np.max(np.sum(ens.means[s] ** 2, axis=1)))
            lam = float(np.linalg.eigvalsh(ens.covs[s])[0])
            worst = max(worst, row_sq / lam)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        assert ens.m_constant == worst and ens.m_constant == worst
        assert len(calls) == 1
        monkeypatch.undo()


def test_m_constant_dominates_noncentrality():
    ens = make_truncation_ensemble(n_specs=3, d_max=32, seed=5)
    m = ens.m_constant
    rng = np.random.default_rng(0)
    for s in range(ens.n_specs):
        for d in (1, 5, 32):
            p = MetricPoint(
                JacobianPosterior(mean=ens.means[s, :d], cov=ens.covs[s], dim_data=d)
            )
            for _ in range(20):
                v = rng.standard_normal(2)
                assert omega(p, v) <= m * d * (1.0 + 1e-12)


def test_sweep_row_invariants():
    ens = make_truncation_ensemble(n_specs=12, d_max=256, seed=0)
    rows = truncation_sweep(ens, DYADIC, v_samples=32, seed=0)
    assert [r.d for r in rows] == DYADIC
    for r in rows:
        assert 0.0 <= r.gap_norm <= r.bound
        assert 0.0 <= r.gap_volume < 1.0
        assert r.gap_times_d == pytest.approx(r.d * r.gap_norm, rel=1e-15)
        # mean gap <= mean bound and d * bound(w) <= 1 pointwise
        assert r.gap_times_d <= 1.0 + 1e-12
        assert r.gap_times_d <= 1.0 + ens.m_constant
    gaps = [r.gap_norm for r in rows]
    assert gaps == sorted(gaps, reverse=True)
    vol = [r.gap_volume for r in rows]
    assert vol[-1] < vol[0] / 10.0
    assert convergence_violations(rows, ens.m_constant) == {
        "trunc_gap_range": 0,
        "trunc_gap_scaled": 0,
    }


def test_sweep_equals_the_per_kind_formulation():
    # one Gram and one forms pass per dimension for the directions and the
    # volume angles give, bit for bit, the rows of forming the directions'
    # sigma and signal on their own and each volume in its own bh_volumes
    # call: at verify's defaults and at the benchmark's 8 directions
    ens = make_truncation_ensemble(n_specs=12, d_max=1024, seed=0)
    for v_samples in (64, 8):
        got = truncation_sweep(ens, DYADIC_1024, v_samples=v_samples, seed=0)
        assert got == truncation_sweep_per_kind(ens, DYADIC_1024, v_samples=v_samples, seed=0)


def test_sweep_takes_one_1f1_call_per_dimension(monkeypatch):
    # the finsler norms of every spec, direction and volume angle of a
    # dimension are one kummer_1f1_array call with the scalar b = D/2
    calls = []

    def recording(a, b, x):
        calls.append(b)
        return kummer_1f1_array(a, b, x)

    monkeypatch.setattr(metric, "kummer_1f1_array", recording)
    ens = make_truncation_ensemble(n_specs=12, d_max=1024, seed=0)
    truncation_sweep(ens, DYADIC_1024, v_samples=8, seed=0)
    assert calls == [0.5 * d for d in DYADIC_1024]


def test_central_sweep_matches_closed_forms():
    ens = make_truncation_ensemble(n_specs=3, d_max=64, seed=4, central=True)
    rows = truncation_sweep(ens, [2, 8, 64], v_samples=8, seed=4)
    for r in rows:
        g = central_norm_gap(r.d)
        assert r.gap_norm == pytest.approx(g, abs=1e-12)
        # radii scale uniformly, so areas scale by (1 - g)^-2 exactly
        assert r.gap_volume == pytest.approx(1.0 - (1.0 - g) ** 2, abs=1e-12)
    assert ens.m_constant == 0.0


def test_sweep_validation():
    ens = make_truncation_ensemble(n_specs=2, d_max=16, seed=0)
    with pytest.raises(ValueError, match="increasing"):
        truncation_sweep(ens, [4, 2], seed=0)
    with pytest.raises(ValueError, match="increasing"):
        truncation_sweep(ens, [2, 2, 4], seed=0)
    with pytest.raises(ValueError, match="16"):
        truncation_sweep(ens, [2, 32], seed=0)
    with pytest.raises(ValueError, match="direction"):
        truncation_sweep(ens, [2, 4], v_samples=0, seed=0)
    wide = make_truncation_ensemble(n_specs=2, d_max=16, q=3, seed=0)
    with pytest.raises(ValueError, match="q = 2"):
        truncation_sweep(wide, [2, 4], seed=0)


def test_sweep_rejects_an_empty_dimension_list():
    ens = make_truncation_ensemble(n_specs=2, d_max=16, seed=0)
    with pytest.raises(ValueError, match="at least one dimension"):
        truncation_sweep(ens, [], seed=0)


def test_sweep_reproducible():
    ens = make_truncation_ensemble(n_specs=2, d_max=16, seed=3)
    a = truncation_sweep(ens, [2, 16], v_samples=8, seed=3)
    b = truncation_sweep(ens, [2, 16], v_samples=8, seed=3)
    assert a == b


def test_convergence_violation_counter():
    good = ConvergenceRow(d=8, gap_norm=0.01, gap_volume=0.02, bound=0.05, gap_times_d=0.08)
    bad_range = ConvergenceRow(d=8, gap_norm=0.06, gap_volume=0.02, bound=0.05, gap_times_d=0.48)
    bad_scale = ConvergenceRow(d=8, gap_norm=0.3, gap_volume=0.02, bound=0.4, gap_times_d=2.4)
    out = convergence_violations([good, bad_range, bad_scale], m_constant=1.0)
    assert out == {"trunc_gap_range": 1, "trunc_gap_scaled": 1}


def test_export_convergence_csv(tmp_path):
    ens = make_truncation_ensemble(n_specs=2, d_max=8, seed=1)
    rows = truncation_sweep(ens, [2, 8], v_samples=4, seed=1)
    path = tmp_path / "conv.csv"
    export_convergence_csv(str(path), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "d,gap_norm,gap_volume,bound,gap_times_d"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 2
    assert float(first[1]) == rows[0].gap_norm
    other = tmp_path / "conv2.csv"
    export_convergence_csv(str(other), rows)
    assert other.read_bytes() == path.read_bytes()


def test_bound_sweep_clean_and_counted():
    report = bound_sweep(n_specs=400, seed=2)
    assert report.ok and report.total == 0
    assert report.trials["norm_sandwich"] == 400
    assert report.trials["norm_gap_range"] == 400
    assert report.trials["curve_length_ordering"] == 40
    assert report.trials["volume_ordering"] == 40
    assert set(report.counts) == set(report.trials)


def test_bound_sweep_counts_every_trial_it_breaks(monkeypatch):
    # a slack of -1e3 breaks every inequality, so each check's count must
    # equal its trials: one per spec, and one per curve and per volume spec
    # (not one per curve segment or quadrature angle)
    monkeypatch.setattr(experiments, "SLACK", -1e3)
    report = bound_sweep(n_specs=300, seed=0)
    assert len(report.counts) == 9
    assert report.counts == report.trials
    assert report.trials["norm_sandwich"] == 300
    for name in ("curve_length_ordering", "curve_energy_ordering", "curve_length_energy",
                 "curve_gap_bounds", "volume_ordering", "volume_gap_bound"):
        assert report.trials[name] == 30, name


def test_bound_sweep_validation_and_reproducibility():
    with pytest.raises(ValueError, match="100"):
        bound_sweep(n_specs=50, seed=0)
    a = bound_sweep(n_specs=120, seed=6)
    b = bound_sweep(n_specs=120, seed=6)
    assert a.counts == b.counts and a.trials == b.trials


@pytest.mark.parametrize("seed", range(5))
def test_bound_sweep_matches_the_scalar_sweep(seed):
    batched = bound_sweep(n_specs=300, seed=seed)
    scalar = bound_sweep_scalar(300, seed)
    assert batched.counts == scalar.counts
    assert batched.trials == scalar.trials


@pytest.mark.parametrize("seed", range(5))
def test_bound_sweep_draws_and_spec_norms_are_the_scalar_ones(seed):
    # the batched sweep draws what the scalar sweep draws, in its order,
    # and its per-spec norms and omega agree with the scalar functions
    recorded = {}
    bound_sweep_scalar(300, seed, draws=recorded)
    specs, curves, volumes = _draw_sweep(300, seed)
    for (mean, cov, v), (p, pv) in zip(specs, recorded["specs"], strict=True):
        assert np.array_equal(mean, p.jac.mean) and np.array_equal(v, pv)
        assert np.array_equal(cov, p.jac.cov)
    for (fld, curve), (pfld, pcurve) in zip(curves, recorded["curves"], strict=True):
        assert (fld.latent_dim, fld.data_dim) == (pfld.latent_dim, pfld.data_dim)
        assert np.array_equal(fld._freq_mean, pfld._freq_mean)
        assert np.array_equal(curve.points, pcurve.points)
    for (mean, cov, _), p in zip(volumes, recorded["volumes"], strict=True):
        assert np.array_equal(mean, p.jac.mean) and np.array_equal(cov, p.jac.cov)

    values = _spec_values(specs)
    scalar = {"alpha_sigma": alpha_sigma_norm, "finsler": finsler_norm,
              "riemann": riemannian_norm, "omega": omega}
    for i, (p, v) in enumerate(recorded["specs"]):
        for kind, fn in scalar.items():
            assert values[kind][i] == pytest.approx(fn(p, v), rel=1e-12), kind
        # the gap is a difference of nearly equal norms: compared absolutely
        for name, want in zip(("gap", "wishart", "jensen"), relative_gap(p, v)):
            assert values[name][i] == pytest.approx(want, rel=1e-12, abs=1e-14), name


@pytest.mark.parametrize("seed", range(5))
def test_bound_sweep_form_linear_norms_are_the_scalar_ones_bit_for_bit(seed):
    # riemann, alpha_sigma and omega are arithmetic on the two quadratic
    # forms, so taking those forms from the scalar path gives the scalar
    # functions' values exactly (finsler differs: one 1F1 array call)
    specs, _, _ = _draw_sweep(300, seed)
    values = _spec_values(specs)
    scalar = {"alpha_sigma": alpha_sigma_norm, "riemann": riemannian_norm, "omega": omega}
    for i, (mean, cov, v) in enumerate(specs):
        p = MetricPoint(JacobianPosterior(mean=mean, cov=cov, dim_data=len(mean)))
        for kind, fn in scalar.items():
            assert values[kind][i] == fn(p, v), (kind, i)


@pytest.mark.parametrize("seed", range(5))
def test_smallest_noncentrality_matches_scipy_generalized_eigh(seed):
    # the sweep's volume specs (q = 2), the same specs cut to their first
    # row (D = 1: E[J]^T E[J] is singular) and with E[J] = 0, against
    # scipy's generalized eigh spec by spec
    _, _, volumes = _draw_sweep(1000, seed)
    dims = [len(m) for m, _, _ in volumes]
    means = np.zeros((len(volumes), max(dims), 2))
    for i, (m, _, _) in enumerate(volumes):
        means[i, : dims[i]] = m
    covs = np.stack([c for _, c, _ in volumes])
    for mm in (means, means[:, :1], np.zeros_like(means)):
        got = _smallest_noncentrality(mm, covs)
        want = np.array([
            max(float(scipy.linalg.eigh(m.T @ m, c, eigvals_only=True)[0]), 0.0)
            for m, c in zip(mm, covs)
        ])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        assert np.all(got >= 0.0)


def test_export_violations_csv(tmp_path):
    report = bound_sweep(n_specs=100, seed=0)
    path = tmp_path / "report.csv"
    export_violations_csv(str(path), report)
    lines = path.read_text().splitlines()
    assert lines[0] == "check,trials,violations"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == sorted(names)
    assert "norm_sandwich" in names and "volume_gap_bound" in names
    assert all(ln.rsplit(",", 1)[1] == "0" for ln in lines[1:])


def test_geodesic_comparison_table(gp_model_2d):
    pairs = [
        (np.array([-0.6, -0.4]), np.array([0.6, 0.4])),
        (np.array([-0.5, 0.5]), np.array([0.5, -0.5])),
    ]
    rows = geodesic_comparison(gp_model_2d, pairs, n_points=17, max_iter=2000, tol=1e-7)
    assert len(rows) == 6
    assert [r.pair for r in rows] == [0, 0, 0, 1, 1, 1]
    assert [r.metric_kind for r in rows] == ["riemann", "finsler", "euclid"] * 2
    for r in rows:
        assert r.converged
        # sign of the norm gap, evaluated on the same curve
        assert 0.0 <= (r.length_riemann - r.length_finsler) / r.length_riemann
        assert r.length_ambient > 0.0 and math.isfinite(r.length_ambient)
        assert r.mean_variance >= 0.0
        assert r.energy > 0.0 and r.iterations > 0


@pytest.mark.filterwarnings("ignore:curve leaves the latent bounding box")
def test_comparison_rows_match_the_per_curve_functionals(gp_model_2d):
    pairs = [(np.array([-0.6, -0.4]), np.array([0.6, 0.4]))]
    field = GpField(gp_model_2d)
    entries = comparison_entries(gp_model_2d, pairs, n_points=17, max_iter=300)
    for row, curve in entries:
        assert row.length_riemann == curve_length(field, curve, "riemann")
        assert row.length_finsler == curve_length(field, curve, "finsler")
        per_point = np.mean([posterior_mean_var(gp_model_2d, z)[1] for z in curve.points])
        assert abs(row.mean_variance - per_point) <= 1e-12 * per_point
        decoded = np.array([posterior_mean_var(gp_model_2d, z)[0] for z in curve.points])
        ambient = np.sum(np.linalg.norm(np.diff(decoded, axis=0), axis=1))
        assert row.length_ambient == pytest.approx(ambient, rel=1e-12)
    # an analytic decoder and no variance; no decoder at all
    sphere = comparison_entries(SphereField(), [((0.2, 1.0), (1.4, 1.8))], ("riemann",),
                                n_points=9, grid=0)
    (row, curve), = sphere
    assert row.mean_variance == 0.0
    chord = np.linalg.norm(np.diff(SphereField().decode_batch(curve.points), axis=0), axis=1)
    assert row.length_ambient == float(np.sum(chord))
    jac = JacobianPosterior(mean=np.ones((3, 2)), cov=0.1 * np.eye(2), dim_data=3)
    (row, _), = comparison_entries(ConstantField(jac), [((0, 0), (1, 1))], ("euclid",),
                                   n_points=5)
    assert math.isnan(row.length_ambient) and row.mean_variance == 0.0


def test_euclid_row_off_the_padded_box_warns():
    # the lengths of a euclid row are posterior lengths too
    field = SyntheticField(seed=3, box=1.0)
    with pytest.warns(UserWarning, match="bounding box"):
        comparison_entries(field, [((-1.5, 0.0), (1.5, 0.0))], ("euclid",), n_points=9)


def test_geodesic_comparison_csv_deterministic(gp_model_2d, tmp_path):
    pairs = [(np.array([-0.5, 0.5]), np.array([0.5, -0.5]))]
    path = tmp_path / "table.csv"
    geodesic_comparison(
        gp_model_2d, pairs, out_path=str(path), n_points=17, max_iter=2000, tol=1e-7
    )
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "pair,metric,length_riemann,length_finsler,length_ambient,"
        "mean_variance,energy,iterations,converged"
    )
    assert len(lines) == 4
    again = tmp_path / "again.csv"
    geodesic_comparison(
        gp_model_2d, pairs, out_path=str(again), n_points=17, max_iter=2000, tol=1e-7
    )
    assert again.read_bytes() == path.read_bytes()


def test_finsler_path_tolerates_variance(pinwheel_model):
    # endpoints on different arms, so every latent path crosses low-data
    # gaps; the expected-norm metric discounts the variance term relative
    # to the expected-metric one and settles in higher-variance territory
    from finslergp.data import _pinwheel_plane

    xy, arm = _pinwheel_plane(500, 5, 0.01, np.random.default_rng(11))
    r = np.linalg.norm(xy, axis=1)

    def pick(a, lo, hi):
        idx = np.where((arm == a) & (r > lo) & (r < hi))[0]
        return xy[idx[0]]

    pairs = [
        (pick(0, 1.2, 1.6), pick(2, 1.2, 1.6)),
        (pick(1, 1.0, 1.4), pick(3, 1.0, 1.4)),
    ]
    rows = geodesic_comparison(
        pinwheel_model, pairs, n_points=17, max_iter=2000, tol=1e-7, grid=8
    )
    for i in range(len(pairs)):
        by_kind = {r.metric_kind: r for r in rows if r.pair == i}
        assert by_kind["riemann"].converged and by_kind["finsler"].converged
        assert by_kind["finsler"].mean_variance >= by_kind["riemann"].mean_variance


def test_comparison_deterministic_limit_collapses():
    # zero Jacobian covariance: the stochastic norm equals the deterministic
    # one, so riemann- and finsler-optimized curves coincide bitwise
    jac = np.array([[1.0, 0.3], [-0.2, 0.8], [0.5, 0.5]])
    fld = ConstantField(JacobianPosterior(mean=jac, cov=np.zeros((2, 2)), dim_data=3))
    pairs = [(np.array([-1.0, -0.5]), np.array([1.0, 0.5]))]
    rows = geodesic_comparison(fld, pairs, n_points=17)
    by_kind = {r.metric_kind: r for r in rows}
    r_row, f_row = by_kind["riemann"], by_kind["finsler"]
    assert r_row.length_riemann == f_row.length_riemann
    assert r_row.length_finsler == f_row.length_finsler
    assert r_row.length_riemann == r_row.length_finsler
    assert math.isnan(r_row.length_ambient)
    assert r_row.mean_variance == 0.0


def test_comparison_row_is_plain_record():
    row = ComparisonRow(
        pair=0,
        metric_kind="riemann",
        length_riemann=1.0,
        length_finsler=0.9,
        length_ambient=2.0,
        mean_variance=0.1,
        energy=1.1,
        iterations=5,
        converged=True,
    )
    assert row == ComparisonRow(**row.__dict__)


def test_export_comparison_csv_roundtrip(tmp_path):
    rows = [
        ComparisonRow(0, "riemann", 1.5, 1.4, 2.0, 0.01, 2.3, 12, True),
        ComparisonRow(0, "finsler", 1.5, 1.39, 2.0, 0.02, 2.2, 9, False),
    ]
    path = tmp_path / "cmp.csv"
    export_comparison_csv(str(path), rows)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert cells[1] == "finsler" and cells[-1] == "0"
    assert float(cells[3]) == 1.39
