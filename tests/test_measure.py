"""Indicatrix geometry and volume measures."""

import math
import warnings

import numpy as np
import pytest

from finslergp import measure, metric
from finslergp.fields import ConstantField, SphereField, as_field
from finslergp.gp import JacobianPosterior, posterior_mean_var
from finslergp.measure import (
    Indicatrix,
    _radii,
    _ratio_bounds,
    _unit_directions,
    bh_volume,
    export_indicatrix_csv,
    export_volume_field_csv,
    indicatrix,
    volume_field,
    volume_ratio_bound,
)
from finslergp.metric import METRIC_KINDS, MetricPoint, gap_bound, norms_sq

from oracles import export_volume_field_csv_listed
from util import random_point


def _random_planar_point(rng, d=None):
    return random_point(rng, d=d, q=2)


def test_indicatrix_validation():
    rng = np.random.default_rng(0)
    p3 = random_point(rng, q=3)
    with pytest.raises(ValueError):
        indicatrix(p3, 64, "riemann")
    p2 = _random_planar_point(rng)
    with pytest.raises(ValueError):
        indicatrix(p2, 8, "riemann")
    with pytest.raises(ValueError):
        indicatrix(p2, 64, "taxicab")
    with pytest.raises(TypeError):
        indicatrix("not a point", 64, "riemann")


def test_euclidean_unit_circle():
    p = _random_planar_point(np.random.default_rng(1))
    ind = indicatrix(p, 64, "euclid")
    assert np.allclose(ind.radii, 1.0, atol=1e-15)
    vol = bh_volume(p, 256, "euclid")
    assert abs(vol - 1.0) < 2e-4  # inscribed-polygon quadrature bias


def test_riemannian_ellipse_semi_axes():
    # E[G] = diag(4, 1): radius 1/2 along the first axis, 1 along the second
    jac = JacobianPosterior(
        mean=np.array([[2.0, 0.0], [0.0, 1.0]]), cov=np.zeros((2, 2)), dim_data=2
    )
    p = MetricPoint(jac)
    ind = indicatrix(p, 64, "riemann")
    assert math.isclose(ind.radii[0], 0.5, rel_tol=1e-14)
    assert math.isclose(ind.radii[16], 1.0, rel_tol=1e-14)
    assert math.isclose(bh_volume(p, 256, "riemann"), 2.0, rel_tol=5e-3)
    # zero covariance: the expected norm reduces to the same ellipse
    fin = indicatrix(p, 64, "finsler")
    assert np.allclose(fin.radii, ind.radii, rtol=1e-12)


def test_ellipse_axes_match_eigenvalues():
    # angular sampling brackets the true axes: the short radius to about
    # (pi/K)^2/2 relative, the long one with the anisotropy ratio on top
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = _random_planar_point(rng)
        ind = indicatrix(p, 256, "riemann")
        evals = np.linalg.eigvalsh(p.expected_metric_tensor)
        assert math.isclose(ind.radii.min(), 1.0 / math.sqrt(evals[1]), rel_tol=1e-3)
        assert math.isclose(ind.radii.max(), 1.0 / math.sqrt(evals[0]), rel_tol=1e-2)


def test_symmetry_exact():
    rng = np.random.default_rng(3)
    for kind in ("riemann", "finsler", "alpha_sigma"):
        for _ in range(10):
            ind = indicatrix(_random_planar_point(rng), 64, kind)
            assert np.array_equal(ind.radii[:32], ind.radii[32:])


def test_indicatrix_nesting_200_points():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = _random_planar_point(rng)
        r_r = indicatrix(p, 64, "riemann").radii
        r_f = indicatrix(p, 64, "finsler").radii
        r_a = indicatrix(p, 64, "alpha_sigma").radii
        assert np.all(r_r <= r_f * (1.0 + 1e-9))
        assert np.all(r_f <= r_a * (1.0 + 1e-9))


def test_indicatrix_convexity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = _random_planar_point(rng)
        for kind in ("riemann", "finsler", "alpha_sigma"):
            assert indicatrix(p, 64, kind).is_convex()


def test_unbounded_indicatrix_is_convex():
    # alpha_sigma on the deterministic sphere chart is 0 in every direction:
    # every radius is inf, the unit ball is the whole plane
    p = SphereField().jacobian_posterior([0.3, 1.2])
    ind = indicatrix(p, 64, "alpha_sigma")
    assert np.all(np.isinf(ind.radii))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ind.is_convex()


def test_degenerate_direction_raises():
    # rank-one deterministic metric: zero norm along the sampled direction
    # theta = 0, which lies in the kernel of E[G]
    jac = JacobianPosterior(
        mean=np.array([[0.0, 1.0]]), cov=np.zeros((2, 2)), dim_data=1
    )
    with pytest.raises(ValueError, match="degenerate"):
        indicatrix(MetricPoint(jac), 64, "riemann")


def test_bh_volume_matches_sqrt_det():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = _random_planar_point(rng)
        vol = bh_volume(p, 256, "riemann")
        want = math.sqrt(np.linalg.det(p.expected_metric_tensor))
        assert abs(vol - want) <= 5e-3 * want


def test_volume_ordering_200_points():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = _random_planar_point(rng)
        v_a = bh_volume(p, 64, "alpha_sigma")
        v_f = bh_volume(p, 64, "finsler")
        v_r = bh_volume(p, 64, "riemann")
        assert v_a <= v_f * (1.0 + 1e-9) and v_f <= v_r * (1.0 + 1e-9)


def test_volume_ratio_bound_random_points():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = _random_planar_point(rng)
        v_f = bh_volume(p, 64, "finsler")
        v_r = bh_volume(p, 64, "riemann")
        ratio = (v_r - v_f) / v_r
        assert 0.0 <= ratio < 1.0
        assert ratio <= volume_ratio_bound(p, 64) + 1e-12


def test_volume_ratio_bound_validates_as_bh_volume_does():
    # too few angles, and a 3-d latent space, raise the same messages from
    # both, before any norm is formed
    planar = JacobianPosterior(np.ones((4, 2)), 0.1 * np.eye(2), 4)
    wide = JacobianPosterior(np.ones((4, 3)), 0.1 * np.eye(3), 4)
    for p, K, message in ((planar, 4, "need at least 16 angles"), (wide, 64, "2-d latent spaces")):
        for measure_of in (bh_volume, volume_ratio_bound):
            with pytest.raises(ValueError, match=message):
                measure_of(p, K)


def test_volume_field_checks_angles_before_any_jacobian_batch(monkeypatch):
    field, calls = SphereField(), []
    batch = field.jacobian_batch
    monkeypatch.setattr(field, "jacobian_batch", lambda Z: calls.append(len(Z)) or batch(Z))
    with pytest.raises(ValueError, match="need at least 16 angles"):
        volume_field(field, grid=4, K=8)
    assert calls == []
    volume_field(field, grid=4, K=16)
    assert calls == [16]


def test_volume_field_shapes_and_ranges(gp_model_2d):
    vf = volume_field(gp_model_2d, grid=8, K=64)
    assert vf.grid_points.shape == (64, 2)
    for arr in (vf.v_riemann, vf.v_finsler, vf.v_alpha_sigma):
        assert arr.shape == (64,) and np.all(arr > 0.0)
    assert np.all((vf.ratio >= 0.0) & (vf.ratio < 1.0))
    assert np.all(vf.ratio <= vf.ratio_bound + 1e-12)
    assert np.all(vf.v_alpha_sigma <= vf.v_finsler * (1.0 + 1e-9))
    assert np.all(vf.v_finsler <= vf.v_riemann * (1.0 + 1e-9))


def test_volume_field_covers_margin(gp_model_2d):
    vf = volume_field(gp_model_2d, grid=8, K=32)
    lo = gp_model_2d.latent_inputs.min(axis=0)
    hi = gp_model_2d.latent_inputs.max(axis=0)
    span = hi - lo
    assert np.allclose(vf.grid_points.min(axis=0), lo - 0.1 * span)
    assert np.allclose(vf.grid_points.max(axis=0), hi + 0.1 * span)


def test_volume_field_validation():
    rng = np.random.default_rng(9)
    wide = ConstantField(
        JacobianPosterior(
            mean=rng.standard_normal((4, 3)), cov=0.2 * np.eye(3), dim_data=4
        )
    )
    with pytest.raises(ValueError):
        volume_field(wide, grid=8)
    planar = ConstantField(
        JacobianPosterior(
            mean=rng.standard_normal((4, 2)), cov=0.2 * np.eye(2), dim_data=4
        )
    )
    with pytest.raises(ValueError):
        volume_field(planar, grid=1)


def test_ratio_small_in_low_variance_regions(gp_dense_model):
    # where the posterior pins the function (variance < 1e-3 of the kernel
    # variance) the two geometries nearly coincide
    vf = volume_field(gp_dense_model, grid=12, K=64)
    low = np.array(
        [
            posterior_mean_var(gp_dense_model, z)[1]
            < 1e-3 * gp_dense_model.kernel.variance
            for z in vf.grid_points
        ]
    )
    assert low.sum() >= 10
    assert np.all(vf.ratio[low] < 1e-2)


def test_export_volume_field_csv(tmp_path, gp_model_2d):
    vf = volume_field(gp_model_2d, grid=4, K=32)
    path = str(tmp_path / "vol.csv")
    export_volume_field_csv(path, vf)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        n_rows = sum(1 for _ in fh)
    assert header == [
        "z1",
        "z2",
        "v_riemann",
        "v_finsler",
        "v_alpha_sigma",
        "ratio",
        "log10_v_riemann",
        "log10_v_finsler",
        "log10_v_alpha_sigma",
        "log10_ratio",
    ]
    assert n_rows == 16


@pytest.mark.parametrize("name", ["gp", "sphere"])
def test_export_volume_field_csv_is_the_listed_columns_byte_for_byte(tmp_path, gp_model_2d, name):
    vf = volume_field(gp_model_2d if name == "gp" else SphereField(), grid=4, K=32)
    if name == "sphere":  # a deterministic field: log10 of 0 takes the floor
        assert np.all(vf.v_alpha_sigma == 0.0)
    export_volume_field_csv(str(tmp_path / "named.csv"), vf)
    export_volume_field_csv_listed(str(tmp_path / "listed.csv"), vf)
    assert (tmp_path / "named.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()


def test_export_indicatrix_csv(tmp_path):
    p = _random_planar_point(np.random.default_rng(10))
    inds = [indicatrix(p, 32, kind) for kind in ("riemann", "finsler", "alpha_sigma")]
    path = str(tmp_path / "ind.csv")
    export_indicatrix_csv(path, inds)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().strip().splitlines()
    assert header == ["theta", "r_riemann", "r_finsler", "r_alpha_sigma"]
    assert len(rows) == 32
    first = [float(c) for c in rows[0].split(",")]
    assert first[0] == 0.0 and np.allclose(
        first[1:], [ind.radii[0] for ind in inds]
    )
    with pytest.raises(ValueError):
        export_indicatrix_csv(str(tmp_path / "x.csv"), [])


def test_indicatrix_area_positive_and_consistent():
    p = _random_planar_point(np.random.default_rng(11))
    ind = indicatrix(p, 256, "riemann")
    # polygon area against the shoelace formula on the same vertices
    pts = ind.radii[:, None] * np.column_stack(
        [np.cos(ind.angles), np.sin(ind.angles)]
    )
    x, y = pts[:, 0], pts[:, 1]
    shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert math.isclose(ind.area, shoelace, rel_tol=1e-10)


def test_indicatrix_dataclass_fields():
    p = _random_planar_point(np.random.default_rng(12))
    ind = indicatrix(p, 64, "finsler")
    assert isinstance(ind, Indicatrix)
    assert ind.metric_kind == "finsler"
    assert ind.angles.shape == (64,) and ind.radii.shape == (64,)
    assert np.all(ind.radii > 0.0)
    assert np.all(np.diff(ind.angles) > 0.0)


def test_volume_field_matches_per_point_functions(gp_model_2d):
    # one batched evaluation over the grid gives, at each grid point, what
    # the per-point functions give there
    vf = volume_field(gp_model_2d, grid=5, K=64)
    field = as_field(gp_model_2d)
    for i, z in enumerate(vf.grid_points):
        p = field.jacobian_posterior(z)
        assert vf.v_riemann[i] == pytest.approx(bh_volume(p, 64, "riemann"), rel=1e-13)
        assert vf.v_finsler[i] == pytest.approx(bh_volume(p, 64, "finsler"), rel=1e-13)
        assert vf.v_alpha_sigma[i] == pytest.approx(bh_volume(p, 64, "alpha_sigma"), rel=1e-13)
        assert vf.ratio_bound[i] == pytest.approx(volume_ratio_bound(p, 64), rel=1e-13)


@pytest.mark.parametrize("grid, K", [(16, 256), (5, 64), (3, 17)])
def test_volume_field_is_the_per_kind_calls_bit_for_bit(gp_model_2d, grid, K):
    # one pass of the forms serves every kind: each volume and the ratio
    # bound are the bits of their own `bh_volumes` and `_ratio_bounds`
    # calls, each of which forms sigma and the signal again
    vf = volume_field(gp_model_2d, grid=grid, K=K)
    field = as_field(gp_model_2d)
    means, covs = field.jacobian_batch(vf.grid_points)
    d = field.data_dim
    for kind, got in (("riemann", vf.v_riemann), ("finsler", vf.v_finsler),
                      ("alpha_sigma", vf.v_alpha_sigma)):
        assert got.tobytes() == measure.bh_volumes(means, covs, d, K, kind).tobytes(), kind
    assert vf.ratio_bound.tobytes() == _ratio_bounds(means, covs, d, K).tobytes()


def test_volume_field_forms_sigma_and_signal_once_per_block(monkeypatch):
    # 256 grid points at 128 evaluated angles are two blocks of norms_sq's
    # size: one forms pass each serves all three volumes and the bound
    calls = []
    forms = metric._sigma_and_signal_batch

    def counted(means, covs, V):
        calls.append(len(means))
        return forms(means, covs, V)

    monkeypatch.setattr(metric, "_sigma_and_signal_batch", counted)
    volume_field(SphereField(), grid=16, K=256)
    assert calls == [128, 128]


def test_batched_radii_exactly_even(gp_model_2d):
    # every grid point's indicatrix, taken from the batched volume path, is
    # symmetric bit for bit
    field = as_field(gp_model_2d)
    means, covs = field.jacobian_batch(np.random.default_rng(13).uniform(-2, 2, (30, 2)))
    for kind in ("riemann", "finsler", "alpha_sigma"):
        radii = _radii(means, covs, field.data_dim, 64, kind)
        assert radii.shape == (30, 64)
        assert np.array_equal(radii[:, :32], radii[:, 32:])


@pytest.mark.parametrize("K", [64, 256, 17, 33])
def test_half_turn_equals_every_angle(gp_model_2d, monkeypatch, K):
    # radii and ratio bounds equal the norms at all K directions bit for
    # bit; for even K only the first K/2 directions are evaluated
    field = as_field(gp_model_2d)
    means, covs = field.jacobian_batch(np.random.default_rng(K).uniform(-2, 2, (12, 2)))
    d = field.data_dim
    dirs = _unit_directions(K)
    evaluated = []

    def recording_norms_sq(means, covs, dim_data, V, kind):
        evaluated.append(len(V))
        return norms_sq(means, covs, dim_data, V, kind)

    monkeypatch.setattr(measure, "norms_sq", recording_norms_sq)
    for kind in METRIC_KINDS:
        want = 1.0 / np.sqrt(norms_sq(means, covs, d, dirs, kind))
        assert np.array_equal(_radii(means, covs, d, K, kind), want), kind
    w = norms_sq(means, covs, d, dirs, "omega")
    want = 1.0 - (1.0 - np.max(gap_bound(d, w), axis=1)) ** 2
    assert np.array_equal(_ratio_bounds(means, covs, d, K), want)
    assert evaluated == [K // 2 if K % 2 == 0 else K] * (len(METRIC_KINDS) + 1)


def test_bh_volumes_per_point_dims_match_int_calls():
    rng = np.random.default_rng(59)
    points = [_random_planar_point(rng, d=12) for _ in range(30)]
    means = np.stack([p.jac.mean for p in points])
    covs = np.stack([p.jac.cov for p in points])
    dims = rng.choice([1, 12, 512], 30)
    for kind in METRIC_KINDS:
        got = measure.bh_volumes(means, covs, dims, 64, kind)
        for i, d in enumerate(dims):
            want = measure.bh_volumes(means[i : i + 1], covs[i : i + 1], int(d), 64, kind)
            assert got[i] == want[0], (kind, d)
