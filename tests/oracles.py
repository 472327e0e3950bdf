"""Extended-precision, scalar and finite-difference oracles, and the
single-point or one-kind views of package computations, used only by the
test suite."""

import math
import warnings

import mpmath as mp
import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from finslergp.data import write_csv
from finslergp.experiments import (
    COMPARISON_KINDS,
    SLACK,
    VOLUME_ANGLES,
    ConvergenceRow,
    ViolationReport,
    _convergence_checks,
    _random_curve,
    comparison_entries,
    export_comparison_csv,
)
from finslergp.fields import GpField, SyntheticField, as_field
from finslergp.geodesic import (
    DiscreteCurve,
    _length_and_energy,
    _segment_norms_sq,
    curve_energy,
)
from finslergp.gp import (
    RBF,
    JacobianPosterior,
    _differences,
    _gradient_matrix,
    _jacobian_pass,
    _kernel_matrix,
    _log_marginal,
    _log_marginal_terms,
    _query_points,
    _robust_cholesky,
    _sqdist,
    cho_solve,
)
from finslergp.measure import _log10_floor, bh_volume, bh_volumes
from finslergp.metric import (
    METRIC_KINDS,
    _check_kind,
    _norms_from_forms,
    _sigma_and_signal_batch,
    bound_report,
    gap_bound,
    relative_gap,
)
from finslergp.randmat import batch_rng
from finslergp.specfun import log_gamma_ratio

from util import random_point_and_vector


def hyp1f1_series(a, b, x, terms=200, dps=60):
    """Brute-force 1F1 power series summed in extended precision.

    No transformations, no cleverness: the raw series with enough working
    digits to survive the alternating-sign cancellation at moderate |x|.
    """
    with mp.workdps(dps):
        am, bm, xm = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        term = mp.mpf(1)
        total = mp.mpf(1)
        for k in range(terms):
            term *= (am + k) / (bm + k) * xm / (k + 1)
            total += term
        return total


def hyp1f1_mp(a, b, x, dps=50):
    """mpmath's own 1F1, for regimes the raw series cannot reach."""
    with mp.workdps(dps):
        return mp.hyp1f1(mp.mpf(a), mp.mpf(b), mp.mpf(x))


def loggamma_mp(x, dps=60):
    with mp.workdps(dps):
        return mp.loggamma(mp.mpf(x))


def hermite_rule_positive_half(n=80, dps=50):
    """The n // 2 positive nodes of the n-point Gauss-Hermite rule and their
    weights, as (n // 2, 2) doubles: numpy's hermgauss(n) nodes polished by
    Newton steps on H_n in dps digits, with weights
    2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}(x)^2), each rounded once."""
    nodes = np.polynomial.hermite.hermgauss(n)[0][n // 2:]

    def hermite_pair(x):
        # (H_{n-1}(x), H_n(x)) by the three-term recurrence
        prev, cur = mp.mpf(1), 2 * x
        for k in range(1, n):
            prev, cur = cur, 2 * x * cur - 2 * k * prev
        return prev, cur

    rows = []
    with mp.workdps(dps):
        for x in nodes:
            x = mp.mpf(float(x))
            for _ in range(8):
                below, value = hermite_pair(x)
                x -= value / (2 * n * below)
            below = hermite_pair(x)[0]
            weight = mp.mpf(2) ** (n - 1) * mp.factorial(n) * mp.sqrt(mp.pi) / (n * n * below**2)
            rows.append((float(x), float(weight)))
    return np.array(rows)


def bound_sweep_scalar(n_specs, seed, draws=None):
    """`experiments.bound_sweep` one spec at a time through the scalar norms:
    bound_report and relative_gap per spec, one _segment_norms_sq per
    curve's field, three bh_volume calls per volume spec. With a dict as
    draws, its lists "specs", "curves" and "volumes" receive each (p, v),
    (field, curve) and volume MetricPoint in the order drawn."""
    if draws is not None:
        draws.update(specs=[], curves=[], volumes=[])
    counts = dict.fromkeys(
        [
            "norm_sandwich", "norm_gap_range", "norm_gap_jensen",
            "curve_length_ordering", "curve_energy_ordering", "curve_length_energy",
            "curve_gap_bounds", "volume_ordering", "volume_gap_bound",
        ],
        0,
    )
    trials = dict.fromkeys(counts, 0)
    rng = batch_rng(seed, 41)

    for i in range(n_specs):
        p, v = random_point_and_vector(rng)
        if draws is not None:
            draws["specs"].append((p, v))
        trials["norm_sandwich"] += 1
        if not bound_report(p, v).ok:
            counts["norm_sandwich"] += 1
        gap, wishart, jensen = relative_gap(p, v)
        trials["norm_gap_range"] += 1
        if not -SLACK <= gap <= wishart + SLACK:
            counts["norm_gap_range"] += 1
        trials["norm_gap_jensen"] += 1
        if gap > jensen + SLACK:
            counts["norm_gap_jensen"] += 1

        if i % 10 != 0:
            continue

        fld = SyntheticField(
            seed=int(rng.integers(0, 2**31)),
            latent_dim=int(rng.integers(2, 4)),
            data_dim=int(rng.integers(2, 33)),
        )
        curve = _random_curve(rng, fld.latent_dim)
        if draws is not None:
            draws["curves"].append((fld, curve))
        *seg_sq, omegas = _segment_norms_sq(
            fld, curve.midpoints, curve.velocities, ("alpha_sigma", "finsler", "riemann", "omega")
        )
        (l_a, e_a), (l_f, e_f), (l_r, e_r) = map(_length_and_energy, seg_sq)
        trials["curve_length_ordering"] += 1
        if not (l_a <= l_f + SLACK and l_f <= l_r + SLACK):
            counts["curve_length_ordering"] += 1
        trials["curve_energy_ordering"] += 1
        if not (e_a <= e_f + SLACK and e_f <= e_r + SLACK):
            counts["curve_energy_ordering"] += 1
        trials["curve_length_energy"] += 1
        if not (
            l_a**2 <= e_a + SLACK and l_f**2 <= e_f + SLACK and l_r**2 <= e_r + SLACK
        ):
            counts["curve_length_energy"] += 1
        m = float(np.max(gap_bound(fld.data_dim, omegas)))
        trials["curve_gap_bounds"] += 1
        if l_r > 0.0 and not (
            (l_r - l_f) / l_r <= m + SLACK
            and (e_r - e_f) / e_r <= 2.0 * m + m * m + SLACK
        ):
            counts["curve_gap_bounds"] += 1

        p2, _ = random_point_and_vector(batch_rng(seed, 100_000 + i), q=2)
        if draws is not None:
            draws["volumes"].append(p2)
        v_a = bh_volume(p2, 64, "alpha_sigma")
        v_f2 = bh_volume(p2, 64, "finsler")
        v_r2 = bh_volume(p2, 64, "riemann")
        trials["volume_ordering"] += 1
        if not (v_a <= v_f2 * (1.0 + SLACK) and v_f2 <= v_r2 * (1.0 + SLACK)):
            counts["volume_ordering"] += 1
        ratio = (v_r2 - v_f2) / v_r2
        g = p2.jac.mean.T @ p2.jac.mean
        w_min = max(
            float(scipy.linalg.eigh(g, p2.jac.cov, eigvals_only=True)[0]), 0.0
        )
        eig_bound = 1.0 - (1.0 - gap_bound(p2.dim_data, w_min)) ** 2
        trials["volume_gap_bound"] += 1
        if not -SLACK <= ratio <= eig_bound + SLACK:
            counts["volume_gap_bound"] += 1

    return ViolationReport(seed=seed, n_specs=n_specs, counts=counts, trials=trials)


def truncation_sweep_per_kind(ensemble, dims, v_samples=64, seed=0):
    """`experiments.truncation_sweep` with the sigma and signal of its
    directions formed per dimension by `_sigma_and_signal_batch`, and each
    volume by its own `bh_volumes` call (each forms the Gram again)."""
    rng = batch_rng(seed, 997)
    dirs = rng.standard_normal((ensemble.n_specs, v_samples, ensemble.dim_latent))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    rows = []
    covs = ensemble.covs
    for d in dims:
        means = ensemble.means[:, :d]
        forms = _sigma_and_signal_batch(means, covs, dirs)
        upper, finsler = (np.sqrt(_norms_from_forms(*forms, d, k)) for k in ("riemann", "finsler"))
        gaps = (upper - finsler) / np.where(upper == 0.0, 1.0, upper)
        bounds = gap_bound(d, _norms_from_forms(*forms, d, "omega"))
        v_r = bh_volumes(means, covs, d, VOLUME_ANGLES, "riemann")
        v_f = bh_volumes(means, covs, d, VOLUME_ANGLES, "finsler")
        gap_norm = float(np.mean(gaps))
        rows.append(
            ConvergenceRow(
                d=d,
                gap_norm=gap_norm,
                gap_volume=float(np.mean((v_r - v_f) / v_r)),
                bound=float(np.mean(bounds)),
                gap_times_d=d * gap_norm,
            )
        )
    return rows


def central_norm_gap(d: int) -> float:
    """Relative norm gap when the Jacobian mean vanishes.

    In that case both norms are explicit moments of the same chi
    distribution and the gap is 1 - sqrt(2/d) * Gamma((d+1)/2) / Gamma(d/2),
    independent of the direction and of the covariance.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    return 1.0 - math.sqrt(2.0 / d) * math.exp(log_gamma_ratio(0.5 * (d + 1), 0.5 * d))


def sphere_chart_inverse(x: np.ndarray) -> np.ndarray:
    """Unit vector -> (azimuth in [-pi, pi], polar in [0, pi])."""
    return np.array([math.atan2(x[1], x[0]), math.acos(np.clip(x[2], -1.0, 1.0))])


# ---------------------------------------------------------------------------
# GP kernels, likelihood and Jacobian posteriors


def kernel_eval(k, z1, z2) -> float:
    """Covariance between function values at two latent points."""
    z1 = np.atleast_2d(np.asarray(z1, dtype=float))
    z2 = np.atleast_2d(np.asarray(z2, dtype=float))
    return float(_kernel_matrix(k, z1, z2)[0, 0])


def _kernel_grad_first(k, a, b) -> np.ndarray:
    """Gradient of k(z1, z2) in z1, for all pairs: shape (n, m, q)."""
    d, c, _ = _differences(k, a, b)
    return np.moveaxis(c * d, 0, -1)


def kernel_of_r2_formula(k, r2) -> np.ndarray:
    """k at squared distances r2, the formula evaluated with temporaries."""
    if k.family == RBF:
        return k.variance * np.exp(-0.5 * r2 / k.lengthscale**2)
    u = math.sqrt(5.0) / k.lengthscale
    r = np.sqrt(r2)
    return k.variance * (1.0 + u * r + (u * r) ** 2 / 3.0) * np.exp(-u * r)


def radial_coefficients_formula(k, r2) -> tuple:
    """The radial coefficients (c, e) of `gp._radial_coefficients` at r2, the
    formulas evaluated with temporaries."""
    if k.family == RBF:
        c = -(k.variance / k.lengthscale**2) * np.exp(-0.5 * r2 / k.lengthscale**2)
        return c, -c / k.lengthscale**2
    u = math.sqrt(5.0) / k.lengthscale
    r = np.sqrt(r2)
    decay = np.exp(-u * r)
    return -(k.variance * u**2 / 3.0) * (1.0 + u * r) * decay, (k.variance * u**4 / 3.0) * decay


def log_marginal_terms_separate_exps(r2, Yc, kernel, noise):
    """`gp._log_marginal_terms` with the kernel and its radial coefficient
    each from its own formula (an exp each), and each trace a full N x N
    product."""
    gram = kernel_of_r2_formula(kernel, r2)
    chol = _robust_cholesky(gram.copy(), noise, kernel.variance, lambda: gram)
    alpha = cho_solve((chol.T, False), Yc)
    lml = _log_marginal(chol, alpha, Yc)
    mmat = _gradient_matrix(chol, alpha)
    c = radial_coefficients_formula(kernel, r2)[0]
    grad = np.array(
        [
            0.5 * float(np.sum(mmat * (-c * r2))),
            0.5 * float(np.sum(mmat * gram)),
            0.5 * noise * float(np.trace(mmat)),
        ]
    )
    return lml, grad, mmat, c


def _log_marginal_and_grad(X, Yc, kernel, noise):
    """Log marginal likelihood and its gradient in (log lengthscale,
    log variance, log noise)."""
    return _log_marginal_terms(_sqdist(X, X), Yc, kernel, noise)[:2]


def _log_marginal_grad_mmat(X, Yc, kernel, noise):
    """`_log_marginal_and_grad` plus M = alpha alpha^T - D K^-1."""
    return _log_marginal_terms(_sqdist(X, X), Yc, kernel, noise)[:3]


def _jacobian_posterior_batch(m, Z):
    """means (n, D, q) and covs (n, q, q) of `gp._jacobian_pass`."""
    return _jacobian_pass(m, Z, dz=False)


def _jacobian_posterior_batch_dz(m, Z):
    """means, covs, dmeans and dcovs of `gp._jacobian_pass`."""
    return _jacobian_pass(m, Z, dz=True)


def jacobian_posterior_closed_form(m, z) -> JacobianPosterior:
    """Jacobian posterior at z via analytic kernel derivatives."""
    return GpField(m).jacobian_posterior(z)


def jacobian_posterior_discretized(m, z, h: float) -> JacobianPosterior:
    """Jacobian posterior at z from forward differences with step h.

    Uses the joint predictive covariance of z and the q shifted points
    z + h e_j, so the covariance of the difference quotients is exact for
    the given step rather than a diagonal approximation.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if h > m.kernel.lengthscale / 10.0:
        warnings.warn(
            f"difference step h={h:g} exceeds a tenth of the lengthscale "
            f"{m.kernel.lengthscale:g}; the Jacobian will be smoothed",
            stacklevel=2,
        )
    z = _query_points(z, m.dim_latent)[0]
    q = len(z)
    pts = np.vstack([z[None, :], z[None, :] + h * np.eye(q)])

    ks = _kernel_matrix(m.kernel, pts, m.latent_inputs)
    means = ks @ m.alpha  # centered predictive means, (q+1, D)
    w = scipy.linalg.solve_triangular(m.chol, ks.T, lower=True)
    joint = _kernel_matrix(m.kernel, pts, pts) - w.T @ w  # (q+1, q+1)

    mean = (means[1:] - means[0]).T / h  # (D, q)
    cov = (joint[1:, 1:] - joint[1:, :1] - joint[:1, 1:] + joint[0, 0]) / h**2
    return JacobianPosterior(mean=mean, cov=cov, dim_data=m.dim_data)


# ---------------------------------------------------------------------------
# curve energies and geodesic tables


def energy_riemannian(m, c: DiscreteCurve) -> float:
    return curve_energy(m, c, "riemann")


def energy_finsler(m, c: DiscreteCurve) -> float:
    return curve_energy(m, c, "finsler")


def energy_gradient_fd(m, c: DiscreteCurve, metric_kind: str, step: float = 1e-5) -> np.ndarray:
    """All-finite-difference energy gradient; the slow reference path."""
    _check_kind(metric_kind, METRIC_KINDS)
    field = as_field(m)

    def energy(k, j, h):
        pts = c.points.copy()
        pts[k, j] += h
        b = DiscreteCurve(pts)
        (seg,) = _segment_norms_sq(field, b.midpoints, b.velocities, (metric_kind,))
        return _length_and_energy(seg)[1]

    n, q = c.points.shape
    grad = np.empty((n - 2, q))
    for k in range(1, n - 1):
        for j in range(q):
            grad[k - 1, j] = (energy(k, j, step) - energy(k, j, -step)) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# shortest paths


def lattice_path_scipy(n_nodes, us, vs, weights, source, target):
    """Nodes of a shortest path from source to target over the undirected
    edges (us[i], vs[i]) with weights[i], by scipy's Dijkstra search, and
    its length."""
    graph = csr_matrix((weights, (us, vs)), shape=(n_nodes, n_nodes))
    dist, pred = dijkstra(graph, directed=False, indices=source, return_predecessors=True)
    path = [target]
    while path[-1] != source:
        path.append(int(pred[path[-1]]))
    return path[::-1], float(dist[target])


def path_length(us, vs, weights, path):
    """Length of a path over the undirected edges (us[i], vs[i]), its edge
    weights summed from the source on."""
    weight = {}
    for u, v, w in zip(us.tolist(), vs.tolist(), weights.tolist()):
        weight[u, v] = weight[v, u] = w
    length = 0.0
    for u, v in zip(path[:-1], path[1:]):
        length += weight[u, v]
    return length


def geodesic_comparison(m, endpoints, out_path=None, metric_kinds=COMPARISON_KINDS, **kwargs):
    """The rows of `comparison_entries`, also written as CSV with out_path."""
    rows = [row for row, _ in comparison_entries(m, endpoints, metric_kinds, **kwargs)]
    if out_path is not None:
        export_comparison_csv(out_path, rows)
    return rows


def convergence_violations(rows, m_constant: float) -> dict[str, int]:
    """Count rows breaking the gap range or the scaled-gap ceiling."""
    return {name: int(np.sum(~ok)) for name, ok in _convergence_checks(rows, m_constant).items()}


def export_volume_field_csv_listed(path: str, vf) -> None:
    """`measure.export_volume_field_csv` with its header and its columns
    each listed by hand."""
    header = [
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
    rows = zip(
        vf.grid_points[:, 0],
        vf.grid_points[:, 1],
        vf.v_riemann,
        vf.v_finsler,
        vf.v_alpha_sigma,
        vf.ratio,
        _log10_floor(vf.v_riemann),
        _log10_floor(vf.v_finsler),
        _log10_floor(vf.v_alpha_sigma),
        _log10_floor(vf.ratio),
    )
    write_csv(path, rows, header=header)
