"""Curve, energy, and geodesic tests: exact values on flat space, Monte
Carlo checks of the energy identities, gradient consistency, optimizer
descent, and shortest-path initialization."""

import math
import warnings

import numpy as np
import pytest

from finslergp.fields import EuclideanField, GpField, SphereField, SyntheticField, sphere_chart
from finslergp.gp import MATERN52, Kernel, make_model, posterior_mean_var
from finslergp.geodesic import (
    DiscreteCurve,
    _lattice_edges,
    _lattice_graph,
    _shortest_path,
    GeodesicResult,
    curve_energy,
    curve_length,
    energy_gradient,
    export_curve_csv,
    geodesic_between,
    grid_initialize,
    line_curve,
    minimize_energy,
    resample_curve,
)

from oracles import (
    energy_finsler,
    energy_gradient_fd,
    energy_riemannian,
    lattice_path_scipy,
    path_length,
)


def wiggly_curve(rng, n=8, q=2, span=1.4):
    start = rng.uniform(-span, span, q)
    end = rng.uniform(-span, span, q)
    base = line_curve(start, end, n).points
    base[1:-1] += 0.25 * rng.standard_normal((n - 2, q))
    return DiscreteCurve(base)


def segment_norm_samples(field, curve, n_draws, seed):
    """Per-segment samples of the stochastic norm ||velocity||_G."""
    rng = np.random.default_rng(seed)
    out = []
    for mid, vel in zip(curve.midpoints, curve.velocities):
        jac = field.jacobian_posterior(mid)
        mu = jac.mean @ vel
        sig = max(float(vel @ jac.cov @ vel), 0.0)
        g = rng.standard_normal((n_draws, jac.dim_data)) * math.sqrt(sig) + mu
        out.append(np.sqrt(np.einsum("nd,nd->n", g, g)))
    return out


# ---------------------------------------------------------------------------
# curve plumbing


def test_curve_validation():
    with pytest.raises(ValueError):
        DiscreteCurve(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DiscreteCurve(np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]]))


def test_curve_velocities_and_interior():
    c = line_curve(np.zeros(2), np.array([1.0, 2.0]), 5)
    assert np.allclose(c.velocities, np.tile([1.0, 2.0], (4, 1)))
    moved = c.with_interior(np.full((3, 2), 7.0))
    assert np.array_equal(moved.points[0], c.points[0])
    assert np.array_equal(moved.points[-1], c.points[-1])
    assert np.all(moved.points[1:-1] == 7.0)


def test_resample_preserves_geometry():
    c = line_curve(np.zeros(2), np.ones(2), 9)
    r = resample_curve(c, 17)
    assert r.n_points == 17
    assert np.allclose(r.points[:, 0], r.points[:, 1])


# ---------------------------------------------------------------------------
# energies and lengths


def test_straight_line_energy_and_length_euclidean():
    flat = EuclideanField(2, box=5.0)
    start, end = np.zeros(2), np.array([3.0, 4.0])
    c = line_curve(start, end, 64)
    assert curve_energy(flat, c, "euclid") == pytest.approx(25.0, rel=1e-12)
    assert curve_length(flat, c, "euclid") == pytest.approx(5.0, rel=1e-12)
    # the identity-Jacobian field gives the same numbers through the GP path
    assert energy_riemannian(flat, c) == pytest.approx(25.0, rel=1e-12)
    assert energy_finsler(flat, c) == pytest.approx(25.0, rel=1e-12)


def test_constant_curve_has_zero_energy():
    field = SyntheticField(seed=1)
    c = DiscreteCurve(np.tile([0.3, -0.2], (6, 1)))
    assert energy_riemannian(field, c) == 0.0
    assert energy_finsler(field, c) == 0.0


def test_riemannian_energy_matches_monte_carlo():
    field = SyntheticField(seed=2)
    c = wiggly_curve(np.random.default_rng(3))
    samples = segment_norm_samples(field, c, 50_000, seed=4)
    dt = 1.0 / (c.n_points - 1)
    totals = dt * np.sum([s**2 for s in samples], axis=0)
    se = totals.std(ddof=1) / math.sqrt(len(totals))
    assert abs(energy_riemannian(field, c) - totals.mean()) < 4 * se


def test_energy_ordering_on_random_curves():
    field = SyntheticField(seed=5)
    rng = np.random.default_rng(6)
    for _ in range(100):
        c = wiggly_curve(rng)
        e_a = curve_energy(field, c, "alpha_sigma")
        e_f = curve_energy(field, c, "finsler")
        e_r = curve_energy(field, c, "riemann")
        assert e_a <= e_f + 1e-9
        assert e_f <= e_r + 1e-9
        l_a = curve_length(field, c, "alpha_sigma")
        l_f = curve_length(field, c, "finsler")
        l_r = curve_length(field, c, "riemann")
        assert l_a <= l_f + 1e-9
        assert l_f <= l_r + 1e-9
        assert l_f**2 <= e_f + 1e-6
        assert l_r**2 <= e_r + 1e-6


def test_energy_gap_is_integrated_variance():
    field = SyntheticField(seed=7)
    c = wiggly_curve(np.random.default_rng(8))
    dt = 1.0 / (c.n_points - 1)
    gap = energy_riemannian(field, c) - energy_finsler(field, c)
    total = 0.0
    se_sq = 0.0
    for s in segment_norm_samples(field, c, 40_000, seed=9):
        n = len(s)
        cdev = s - s.mean()
        m2 = np.mean(cdev**2)
        m4 = np.mean(cdev**4)
        total += m2
        se_sq += max(m4 - m2**2, 0.0) / n
    assert abs(gap - dt * total) < 4 * dt * math.sqrt(se_sq)


def test_deterministic_limit_energies_agree():
    flat = EuclideanField(2)
    c = wiggly_curve(np.random.default_rng(10))
    assert energy_finsler(flat, c) == pytest.approx(energy_riemannian(flat, c), rel=1e-6)


def test_unknown_metric_kind_rejected():
    with pytest.raises(ValueError):
        curve_energy(EuclideanField(2), line_curve(np.zeros(2), np.ones(2), 4), "spherical")


def test_out_of_box_curve_warns():
    field = SyntheticField(seed=11, box=1.0)
    c = line_curve(np.zeros(2), np.array([5.0, 5.0]), 8)
    with pytest.warns(UserWarning):
        energy_riemannian(field, c)


@pytest.mark.parametrize(
    "measure",
    [
        lambda f, c: curve_energy(f, c, "riemann"),
        lambda f, c: curve_length(f, c, "finsler"),
        lambda f, c: minimize_energy(f, c, "riemann", max_iter=1),
    ],
    ids=["curve_energy", "curve_length", "minimize_energy"],
)
def test_out_of_box_warning_points_at_the_caller(measure):
    field = SyntheticField(seed=11, box=1.0)
    c = line_curve(np.zeros(2), np.array([5.0, 5.0]), 8)
    with pytest.warns(UserWarning, match="bounding box") as record:
        measure(field, c)
    assert len(record) == 1 and record[0].filename == __file__


def test_padded_box_bounds_warnings_and_grid_endpoints():
    # box [-1, 1]^2, padded box [-1.2, 1.2]^2
    field = SyntheticField(seed=11, box=1.0)
    inside = np.array([1.15, -1.15])  # outside the box, inside the padded box
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energy_riemannian(field, line_curve(-inside, inside, 8))
        grid_initialize(field, -inside, inside, grid=6, n_points=9)
    past = np.array([1.25, 0.0])
    with pytest.warns(UserWarning, match="bounding box"):
        energy_riemannian(field, line_curve(-past, past, 8))
    with pytest.raises(ValueError, match="outside the grid box"):
        grid_initialize(field, -past, past, grid=6, n_points=9)


@pytest.mark.parametrize("bad", [{"tol": -1.0}, {"tol": math.nan}, {"max_iter": 0}])
def test_minimize_energy_rejects_meaningless_settings(bad):
    init = line_curve(np.zeros(2), np.ones(2), 5)
    with pytest.raises(ValueError, match="tol >= 0 and max_iter >= 1"):
        minimize_energy(SyntheticField(seed=2), init, "riemann", **bad)


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("kind", ["riemann", "finsler", "alpha_sigma", "euclid"])
def test_energy_gradient_matches_all_finite_differences(kind):
    field = SyntheticField(seed=12)
    rng = np.random.default_rng(13)
    for _ in range(20 if kind == "finsler" else 5):
        c = wiggly_curve(rng, n=6)
        g = energy_gradient(field, c, kind)
        fd = energy_gradient_fd(field, c, kind)
        scale = np.max(np.abs(fd)) + 1e-12
        assert np.max(np.abs(g - fd)) / scale < 1e-4


def _matern_field():
    rng = np.random.default_rng(14)
    X = rng.uniform(-1.5, 1.5, (30, 2))
    Y = np.column_stack([np.sin(X @ w + j) for j, w in enumerate(rng.normal(0, 1, (4, 2)))])
    return GpField(make_model(X, Y, Kernel(MATERN52, 0.9, 1.3), 1e-4))


@pytest.mark.parametrize("kind", ["riemann", "finsler", "alpha_sigma", "euclid"])
@pytest.mark.parametrize("family", ["rbf", "matern52", "sphere"])
def test_exact_energy_gradient_matches_finite_differences(family, kind, gp_model_2d):
    # the exact gradient against the all-difference oracle, at 1e-6
    if family == "sphere":
        field, span, center = SphereField(), 0.8, np.array([0.0, 0.5 * math.pi])
    else:
        field = GpField(gp_model_2d) if family == "rbf" else _matern_field()
        span, center = 1.2, np.zeros(2)
    rng = np.random.default_rng(15)
    for _ in range(4):
        c = wiggly_curve(rng, n=7, span=span)
        c = DiscreteCurve(c.points + center)
        g = energy_gradient(field, c, kind)
        fd = energy_gradient_fd(field, c, kind)
        scale = np.max(np.abs(fd)) + 1e-12
        assert np.max(np.abs(g - fd)) / scale < 1e-6


# ---------------------------------------------------------------------------
# optimizer


def test_minimize_energy_euclidean_straightens_curve():
    flat = EuclideanField(2)
    rng = np.random.default_rng(14)
    init = wiggly_curve(rng, n=16)
    history = []
    res = minimize_energy(flat, init, "euclid", max_iter=400, on_step=history.append)
    assert isinstance(res, GeodesicResult)
    assert res.converged
    span = res.curve.points[-1] - res.curve.points[0]
    assert res.energy == pytest.approx(float(span @ span), rel=1e-6)
    # accepted energies never increase
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    # interior points land on the chord
    t = np.linspace(0, 1, res.curve.n_points)[:, None]
    chord = (1 - t) * res.curve.points[0] + t * res.curve.points[-1]
    assert np.max(np.abs(res.curve.points - chord)) < 1e-3


def test_minimize_energy_monotone_on_gp_metric(gp_model_2d):
    field = GpField(gp_model_2d)
    init = line_curve(np.array([-1.0, -0.5]), np.array([1.0, 0.5]), 12)
    history = []
    res = minimize_energy(field, init, "finsler", max_iter=60, on_step=history.append)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    assert res.length**2 <= res.energy + 1e-6
    assert res.iterations <= 60


def test_minimize_energy_respects_max_iter():
    field = SyntheticField(seed=15)
    init = wiggly_curve(np.random.default_rng(16), n=10)
    res = minimize_energy(field, init, "riemann", max_iter=3)
    assert res.iterations <= 3
    assert not res.converged


@pytest.mark.parametrize("kind", ["riemann", "finsler"])
def test_minimize_energy_reports_the_energy_of_its_curve(kind, gp_model_2d):
    field = GpField(gp_model_2d)
    init = line_curve(np.array([-1.0, -0.5]), np.array([1.0, 0.5]), 12)
    res = minimize_energy(field, init, kind, max_iter=40)
    assert res.iterations > 0
    assert res.energy == pytest.approx(curve_energy(field, res.curve, kind), rel=1e-12)


@pytest.mark.parametrize("kind", ["riemann", "finsler"])
def test_minimize_energy_reports_the_length_of_its_curve(kind, gp_model_2d):
    field = GpField(gp_model_2d)
    init = line_curve(np.array([-1.0, -0.5]), np.array([1.0, 0.5]), 12)
    res = minimize_energy(field, init, kind, max_iter=40)
    assert res.iterations > 0
    assert res.length == pytest.approx(curve_length(field, res.curve, kind), rel=1e-12)


class _LastBitField:
    """The wrapped field with every posterior mean (and its derivative in z)
    scaled by 1 + 2^-52: a last-bit change of the metric's inputs."""

    _SCALE = 1.0 + 2.0**-52

    def __init__(self, field):
        self.field = field
        self.latent_dim = field.latent_dim
        self.data_dim = field.data_dim

    def jacobian_posterior(self, z):  # marks a field; minimize_energy uses the batches
        raise NotImplementedError

    def jacobian_batch(self, Z):
        means, covs = self.field.jacobian_batch(Z)
        return means * self._SCALE, covs

    def jacobian_batch_dz(self, Z):
        means, covs, dmeans, dcovs = self.field.jacobian_batch_dz(Z)
        return means * self._SCALE, covs, dmeans * self._SCALE, dcovs

    def latent_box(self):
        return self.field.latent_box()


# On the GP model the relative-energy stopping rule ends these curves with
# the gradient still at 3e-4 to 4e-4 of its initial size, where a last-bit
# change moves them by 2e-3 to 4e-3 (and the energy by up to 6e-8); a
# gradient-based stopping rule is what this case waits for.
_STOPS_EARLY_ON_GP = pytest.mark.xfail(
    strict=True, reason="relative-energy stopping rule stops short of stationarity on the GP model"
)


@pytest.mark.parametrize("kind", ["riemann", "finsler"])
@pytest.mark.parametrize(
    "source",
    ["synthetic17", "synthetic3", "synthetic5", pytest.param("gp", marks=_STOPS_EARLY_ON_GP)],
)
def test_minimize_energy_ignores_last_bit_changes(kind, source, gp_model_2d):
    # the optimizer's answer must not hinge on the last bit of its inputs,
    # so plain numpy arithmetic in the norm kernel cannot move its curves
    if source == "gp":
        field = GpField(gp_model_2d)
        init = line_curve(np.array([-1.0, -0.5]), np.array([1.0, 0.5]), 12)
    else:
        seed = int(source[len("synthetic"):])
        field = SyntheticField(seed=seed)
        init = wiggly_curve(np.random.default_rng(seed + 1), n=10)
    ref = minimize_energy(field, init, kind, max_iter=2000)
    got = minimize_energy(_LastBitField(field), init, kind, max_iter=2000)
    assert ref.converged and got.converged
    assert np.max(np.abs(got.curve.points - ref.curve.points)) < 1e-6
    assert got.energy == pytest.approx(ref.energy, rel=1e-10)


def test_geodesic_result_length_energy_inequality():
    field = SyntheticField(seed=17)
    init = wiggly_curve(np.random.default_rng(18), n=10)
    for kind in ("riemann", "finsler"):
        res = minimize_energy(field, init, kind, max_iter=150)
        assert res.length**2 <= res.energy + 1e-6


def test_minimize_energy_straightens_a_flat_curve_quickly():
    # quasi-Newton steps: plain gradient descent with Barzilai-Borwein steps
    # took 85 iterations on this curve
    init = wiggly_curve(np.random.default_rng(14), n=16)
    res = minimize_energy(EuclideanField(2), init, "euclid", max_iter=400)
    assert res.converged
    assert res.iterations <= 40


@pytest.mark.parametrize("kind", ["riemann", "finsler"])
def test_minimize_energy_reaches_a_stationary_curve(kind):
    field = SyntheticField(seed=17)
    init = wiggly_curve(np.random.default_rng(18), n=10)
    res = minimize_energy(field, init, kind, max_iter=2000)
    assert res.converged
    g0 = np.max(np.abs(energy_gradient(field, init, kind)))
    g1 = np.max(np.abs(energy_gradient(field, res.curve, kind)))
    assert g1 < 1e-5 * g0


def test_geodesic_between_stops_at_once_on_a_straight_euclidean_line():
    # the straight start is the minimizer and its gradient is rounding noise,
    # so each of the 9-, 17- and 33-point levels stops at its first iteration
    res = geodesic_between(EuclideanField(2), np.array([-0.8, -0.4]), np.array([0.8, 0.4]),
                           "euclid", n_points=33)
    assert res.converged
    assert res.iterations <= 3


# ---------------------------------------------------------------------------
# sphere sanity (one pair here; the acceptance gate runs ten)


def test_sphere_geodesic_matches_great_circle():
    sphere = SphereField()
    z1 = np.array([0.3, 1.2])
    z2 = np.array([1.4, 1.9])
    want = math.acos(float(np.clip(sphere_chart(z1) @ sphere_chart(z2), -1, 1)))
    res = geodesic_between(sphere, z1, z2, "riemann", n_points=64)
    assert res.converged
    assert abs(res.length - want) / want < 0.01
    # constant-speed property of the converged geodesic
    speeds = np.sqrt(
        np.maximum(
            [
                float(v @ sphere.jacobian_posterior(mid).mean.T @ sphere.jacobian_posterior(mid).mean @ v)
                for mid, v in zip(res.curve.midpoints, res.curve.velocities)
            ],
            0.0,
        )
    )
    spread = (speeds.max() - speeds.min()) / speeds.mean()
    assert spread < 0.05


# ---------------------------------------------------------------------------
# grid initialization


def test_grid_initialize_euclidean_is_near_straight():
    flat = EuclideanField(2, box=2.0)
    start = np.array([-1.5, -1.5])
    end = np.array([1.5, 1.5])
    c = grid_initialize(flat, start, end, grid=10, metric_kind="euclid", n_points=32)
    assert np.allclose(c.points[0], start) and np.allclose(c.points[-1], end)
    # box is [-2.4, 2.4]^2 at 10% margin; cell diagonal for a 10-grid
    cell = (2 * 2.4) / 9
    t = np.linspace(0, 1, 32)[:, None]
    chord = (1 - t) * start + t * end
    assert np.max(np.linalg.norm(c.points - chord, axis=1)) <= math.sqrt(2) * cell + 1e-9


def test_grid_initialize_validation():
    flat = EuclideanField(3)
    with pytest.raises(ValueError):
        grid_initialize(flat, np.zeros(3), np.ones(3))
    flat2 = EuclideanField(2, box=1.0)
    with pytest.raises(ValueError):
        grid_initialize(flat2, np.zeros(2), np.array([9.0, 0.0]))


@pytest.mark.parametrize("kind", ["riemann", "finsler"])
def test_endpoints_sharing_a_lattice_node_start_straight(gp_model_2d, kind):
    # both endpoints are nearest to the same node of a 9-grid over the
    # padded box, at (0.038, -0.003); a path through it would be a detour
    start, end = np.array([0.05, -0.03]), np.array([-0.04, 0.06])
    c = grid_initialize(gp_model_2d, start, end, grid=9, metric_kind=kind, n_points=9)
    assert np.allclose(c.points, line_curve(start, end, 9).points, rtol=0, atol=1e-15)
    # start == end: the constant curve, which no step improves
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = geodesic_between(gp_model_2d, start, start, kind, n_points=9, grid=9)
    assert res.converged and res.iterations == 0 and res.energy == 0.0
    assert np.all(res.curve.points == start)


def test_grid_path_detours_around_high_variance_region(gp_arc_model):
    # training data lies on an arc; the straight chord crosses empty space
    field = GpField(gp_arc_model)
    start = field.model.latent_inputs[0]
    end = field.model.latent_inputs[-1]
    path = grid_initialize(field, start, end, grid=12, metric_kind="riemann", n_points=64)
    chord = line_curve(start, end, 64)
    path_var = np.mean([posterior_mean_var(gp_arc_model, z)[1] for z in path.points])
    chord_var = np.mean([posterior_mean_var(gp_arc_model, z)[1] for z in chord.points])
    assert path_var < chord_var


@pytest.mark.parametrize("grid", range(2, 16))
def test_lattice_search_takes_the_oracle_path_without_ties(grid):
    # continuous random weights: no two paths tie, so the heap search and
    # scipy's Dijkstra must return the same path
    rng = np.random.default_rng(grid)
    us, vs = _lattice_edges(grid)
    n = grid * grid
    for _ in range(5):
        weights = rng.uniform(0.05, 1.0, len(us))
        source, target = (int(i) for i in rng.integers(0, n, 2))
        path = _shortest_path(n, us, vs, weights, source, target)
        want, length = lattice_path_scipy(n, us, vs, weights, source, target)
        assert path == want
        assert path_length(us, vs, weights, path) == length


def test_lattice_edges_are_the_8_neighbourhood_once():
    us, vs = _lattice_edges(4)
    assert np.all(us < vs) and len(set(zip(us, vs))) == len(us) == 3 * 4 * 2 + 2 * 3 * 3
    steps = {(v // 4 - u // 4, v % 4 - u % 4) for u, v in zip(us, vs)}
    assert steps == {(1, 0), (0, 1), (1, 1), (1, -1)}


@pytest.mark.parametrize(
    "field, grid, start, end",
    [
        (EuclideanField(2, box=2.0), 10, (-1.5, -1.5), (1.5, 1.5)),
        (EuclideanField(2, box=2.0), 7, (-1.9, 0.3), (1.2, -0.8)),
        (EuclideanField(2, box=2.0), 12, (0.1, -1.7), (0.2, 1.8)),
        # scipy and the heap search take mirror-image routes here
        (SphereField(), 6, (-1.826121, 2.373315), (1.492082, 0.438283)),
    ],
)
def test_lattice_search_ties_give_an_equally_short_path(field, grid, start, end):
    kind = "euclid" if isinstance(field, EuclideanField) else "riemann"
    nodes, us, vs, weights = _lattice_graph(field, grid, kind)
    source, target = (int(np.argmin(np.sum((nodes - z) ** 2, axis=1))) for z in (start, end))
    path = _shortest_path(len(nodes), us, vs, weights, source, target)
    want, length = lattice_path_scipy(len(nodes), us, vs, weights, source, target)
    assert path[0] == source and path[-1] == target
    assert path_length(us, vs, weights, path) == path_length(us, vs, weights, want) == length


def test_lattice_search_breaks_ties_by_node_number():
    # the square 0-1-3-2 with its diagonal 0-3: at unit sides both routes
    # over a corner tie; node 1 settles before node 2 at the same distance,
    # and a predecessor changes only on a strictly shorter distance, so the
    # route over 1 is kept, and a diagonal as long, relaxed first, over both
    us, vs = np.array([0, 0, 1, 2, 0]), np.array([1, 2, 3, 3, 3])
    sides = [1.0, 1.0, 1.0, 1.0]
    assert _shortest_path(4, us, vs, np.array(sides + [6.0]), 0, 3) == [0, 1, 3]
    assert _shortest_path(4, us, vs, np.array(sides + [2.0]), 0, 3) == [0, 3]
    assert _shortest_path(4, us, vs, np.array(sides + [6.0]), 2, 2) == [2]


# ---------------------------------------------------------------------------
# reparametrization and export


def test_length_invariant_under_resampling():
    field = SyntheticField(seed=19)
    t = np.linspace(0, 1, 64)[:, None]
    bow = np.column_stack([2.4 * t[:, 0] - 1.2, 0.8 * np.sin(math.pi * t[:, 0])])
    l64 = curve_length(field, DiscreteCurve(bow), "finsler")
    l128 = curve_length(field, resample_curve(DiscreteCurve(bow), 128), "finsler")
    assert abs(l64 - l128) / l64 < 0.01


def test_export_curve_csv(tmp_path):
    flat = EuclideanField(2)
    c = line_curve(np.zeros(2), np.ones(2), 5)
    out = tmp_path / "curve.csv"
    export_curve_csv(str(out), c, flat)
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["t", "z_1", "z_2", "f_1", "f_2"]
    assert len(lines) == 6
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0, 0.0]
