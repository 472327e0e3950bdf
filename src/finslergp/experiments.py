"""Verification sweeps and geodesic comparison runs.

Three harnesses: a Jacobian-truncation sweep showing the norm and volume
gaps close like O(1/D) as the output dimension grows, a violation sweep
checking every norm/functional/volume inequality on random ensembles, and
a per-endpoint-pair geodesic comparison table. All outputs are plain CSV
with deterministic content for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .data import write_csv
from .fields import GpField, SyntheticField, as_field
from .geodesic import (
    DiscreteCurve, _length_and_energy, _segment_norms_sq, _warn_if_outside, geodesic_between
)
from .gp import JacobianPosterior, _posterior_mean_var_batch
from .measure import bh_volume, bh_volumes
from .metric import MetricPoint, bound_report, gap_bound, norms_sq, relative_gap
from .randmat import batch_rng
from .specfun import log_gamma_ratio

__all__ = [
    "ConvergenceRow",
    "TruncationEnsemble",
    "ViolationReport",
    "ComparisonRow",
    "central_norm_gap",
    "make_truncation_ensemble",
    "truncation_sweep",
    "convergence_violations",
    "bound_sweep",
    "comparison_entries",
    "geodesic_comparison",
    "export_convergence_csv",
    "export_violations_csv",
    "export_comparison_csv",
]

SLACK = 1e-9

COMPARISON_KINDS = ("riemann", "finsler", "euclid")

# polar quadrature angles of the truncation sweep's volume gaps
VOLUME_ANGLES = 64


def central_norm_gap(d: int) -> float:
    """Relative norm gap when the Jacobian mean vanishes.

    In that case both norms are explicit moments of the same chi
    distribution and the gap is 1 - sqrt(2/d) * Gamma((d+1)/2) / Gamma(d/2),
    independent of the direction and of the covariance.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    return 1.0 - math.sqrt(2.0 / d) * math.exp(log_gamma_ratio(0.5 * (d + 1), 0.5 * d))


# ---------------------------------------------------------------------------
# truncation sweep


@dataclass(frozen=True, eq=False)
class TruncationEnsemble:
    """Fixed master Jacobian means (n, d_max, q) and covariances (n, q, q).

    Truncating the mean to its first D rows models a D-dimensional output
    space with an unchanged latent covariance.
    """

    means: np.ndarray
    covs: np.ndarray

    @property
    def n_specs(self) -> int:
        return self.means.shape[0]

    @property
    def d_max(self) -> int:
        return self.means.shape[1]

    @property
    def dim_latent(self) -> int:
        return self.means.shape[2]

    @property
    def m_constant(self) -> float:
        """Smallest M with omega_D <= M * D for every spec, direction and D.

        Row i contributes at most ||row_i||^2 / lambda_min(cov) to the
        noncentrality per dimension, so the maximum over rows and specs
        works for every unit direction.
        """
        worst = 0.0
        for s in range(self.n_specs):
            row_sq = float(np.max(np.sum(self.means[s] ** 2, axis=1)))
            lam = float(np.linalg.eigvalsh(self.covs[s])[0])
            worst = max(worst, row_sq / lam)
        return worst


@dataclass(frozen=True)
class ConvergenceRow:
    """Ensemble-averaged gaps at one output dimension."""

    d: int
    gap_norm: float
    gap_volume: float
    bound: float
    gap_times_d: float


def make_truncation_ensemble(
    n_specs: int = 12, d_max: int = 1024, q: int = 2, seed: int = 0, central: bool = False
) -> TruncationEnsemble:
    """Random master specs: mean entries uniform on [-1, 1] (zero when
    central), covariance A^T A + 0.1 I with standard normal A."""
    means = np.empty((n_specs, d_max, q))
    covs = np.empty((n_specs, q, q))
    for s in range(n_specs):
        rng = batch_rng(seed, s)
        if central:
            means[s] = 0.0
        else:
            means[s] = rng.uniform(-1.0, 1.0, (d_max, q))
        a = rng.standard_normal((q, q))
        covs[s] = a.T @ a + 0.1 * np.eye(q)
    return TruncationEnsemble(means=means, covs=covs)


def truncation_sweep(
    ensemble: TruncationEnsemble,
    dims,
    v_samples: int = 64,
    seed: int = 0,
) -> list[ConvergenceRow]:
    """Per-dimension norm and volume gaps, averaged over the ensemble.

    The same unit directions are reused at every dimension so the trend in
    D is not confounded by direction sampling noise. Volume gaps need a
    2-D latent space.
    """
    dims = [int(d) for d in dims]
    if dims != sorted(dims) or len(set(dims)) != len(dims):
        raise ValueError("dims must be strictly increasing")
    if dims[0] < 1 or dims[-1] > ensemble.d_max:
        raise ValueError(f"dims must lie in [1, {ensemble.d_max}]")
    if ensemble.dim_latent != 2:
        raise ValueError("the sweep reports volume gaps, which need q = 2")
    if v_samples < 1:
        raise ValueError("need at least one direction sample")

    rng = batch_rng(seed, 997)
    dirs = rng.standard_normal((ensemble.n_specs, v_samples, ensemble.dim_latent))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)

    rows = []
    covs = ensemble.covs
    for d in dims:
        # every spec and direction at once; the same quantities as
        # relative_gap and bh_volume per spec
        means = ensemble.means[:, :d]
        upper = np.sqrt(norms_sq(means, covs, d, dirs, "riemann"))
        finsler = np.sqrt(norms_sq(means, covs, d, dirs, "finsler"))
        gaps = (upper - finsler) / np.where(upper == 0.0, 1.0, upper)
        bounds = gap_bound(d, norms_sq(means, covs, d, dirs, "omega"))
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


def convergence_violations(
    rows: list[ConvergenceRow], m_constant: float
) -> dict[str, int]:
    """Count rows breaking the gap range or the scaled-gap ceiling."""
    out = {"trunc_gap_range": 0, "trunc_gap_scaled": 0}
    for row in rows:
        if not -SLACK <= row.gap_norm <= row.bound + SLACK:
            out["trunc_gap_range"] += 1
        if row.gap_times_d > 1.0 + m_constant + SLACK:
            out["trunc_gap_scaled"] += 1
    return out


def export_convergence_csv(path: str, rows: list[ConvergenceRow]) -> None:
    write_csv(
        path,
        ((r.d, r.gap_norm, r.gap_volume, r.bound, r.gap_times_d) for r in rows),
        header=["d", "gap_norm", "gap_volume", "bound", "gap_times_d"],
    )


# ---------------------------------------------------------------------------
# violation sweep


@dataclass(frozen=True)
class ViolationReport:
    """Violation counts per inequality, with the trial counts that produced
    them. A clean run has every count at zero."""

    seed: int
    n_specs: int
    counts: dict[str, int] = field(default_factory=dict)
    trials: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        return self.total == 0


def _random_spec(rng, q: int | None = None) -> tuple[MetricPoint, np.ndarray]:
    d = int(rng.integers(1, 101))
    if q is None:
        q = int(rng.integers(1, 6))
    mean = rng.uniform(-1.0, 1.0, (d, q))
    a = rng.standard_normal((q, q)) / math.sqrt(q)
    cov = a.T @ a + 0.1 * np.eye(q)
    v = rng.standard_normal(q)
    v /= np.linalg.norm(v)
    return MetricPoint(JacobianPosterior(mean=mean, cov=cov, dim_data=d)), v


def _random_curve(rng, q: int, n_points: int = 16) -> DiscreteCurve:
    a = rng.uniform(-1.5, 1.5, q)
    b = rng.uniform(-1.5, 1.5, q)
    bow = rng.normal(0.0, 0.5, q)
    t = np.linspace(0.0, 1.0, n_points)[:, None]
    return DiscreteCurve((1.0 - t) * a + t * b + np.sin(math.pi * t) * bow)


def bound_sweep(n_specs: int = 10_000, seed: int = 0) -> ViolationReport:
    """Check every norm, curve-functional and volume inequality on random
    ensembles; returns the per-inequality violation counts.

    Norm checks run on every spec; curve and volume checks run on every
    tenth spec (they integrate many norm evaluations each).
    """
    if n_specs < 100:
        raise ValueError("need at least 100 specs for a meaningful sweep")
    counts: dict[str, int] = {
        "norm_sandwich": 0,
        "norm_gap_range": 0,
        "norm_gap_jensen": 0,
        "curve_length_ordering": 0,
        "curve_energy_ordering": 0,
        "curve_length_energy": 0,
        "curve_gap_bounds": 0,
        "volume_ordering": 0,
        "volume_gap_bound": 0,
    }
    trials = dict.fromkeys(counts, 0)
    rng = batch_rng(seed, 41)

    for i in range(n_specs):
        p, v = _random_spec(rng)
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
        # largest per-segment norm gap bound along the curve
        m = float(np.max(gap_bound(fld.data_dim, omegas)))
        trials["curve_gap_bounds"] += 1
        if l_r > 0.0 and not (
            (l_r - l_f) / l_r <= m + SLACK
            and (e_r - e_f) / e_r <= 2.0 * m + m * m + SLACK
        ):
            counts["curve_gap_bounds"] += 1

        p2, _ = _random_spec(batch_rng(seed, 100_000 + i), q=2)
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


def export_violations_csv(path: str, report: ViolationReport) -> None:
    rows = [
        (name, report.trials.get(name, 0), report.counts[name])
        for name in sorted(report.counts)
    ]
    write_csv(path, rows, header=["check", "trials", "violations"])


# ---------------------------------------------------------------------------
# geodesic comparison


@dataclass(frozen=True)
class ComparisonRow:
    """One optimized curve: which pair and metric produced it, and how it
    measures under every relevant functional."""

    pair: int
    metric_kind: str
    length_riemann: float
    length_finsler: float
    length_ambient: float
    mean_variance: float
    energy: float
    iterations: int
    converged: bool


def _ambient_and_variance(fld, curve: DiscreteCurve) -> tuple[float, float]:
    """Length of the decoded curve (nan without `decode_batch`) and mean
    posterior variance at its points (0 off GP fields), from one pass."""
    if isinstance(fld, GpField):
        pts, var = _posterior_mean_var_batch(fld.model, curve.points)
    elif hasattr(fld, "decode_batch"):
        pts, var = fld.decode_batch(curve.points), 0.0
    else:
        return math.nan, 0.0
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))), float(np.mean(var))


def comparison_entries(
    m,
    endpoints,
    metric_kinds=COMPARISON_KINDS,
    n_points: int = 64,
    grid: int = 10,
    max_iter: int = 600,
    tol: float = 1e-8,
) -> list[tuple[ComparisonRow, DiscreteCurve]]:
    """One optimized (row, curve) per (endpoint pair, metric kind).

    Lengths come from one posterior pass at the midpoints, the rest from one
    at the points. Non-convergence is recorded in the row, never raised.
    """
    fld = as_field(m)
    entries = []
    for i, (start, end) in enumerate(endpoints):
        for kind in metric_kinds:
            res = geodesic_between(
                fld,
                np.asarray(start, dtype=float),
                np.asarray(end, dtype=float),
                metric_kind=kind,
                n_points=n_points,
                grid=0 if kind == "euclid" else grid,
                max_iter=max_iter,
                tol=tol,
            )
            if kind == "euclid":  # minimize_energy warns for the other kinds
                _warn_if_outside(fld, res.curve)
            seg_sq = _segment_norms_sq(
                fld, res.curve.midpoints, res.curve.velocities, ("riemann", "finsler")
            )
            l_r, l_f = (_length_and_energy(e)[0] for e in seg_sq)
            length_ambient, mean_variance = _ambient_and_variance(fld, res.curve)
            row = ComparisonRow(
                pair=i,
                metric_kind=kind,
                length_riemann=l_r,
                length_finsler=l_f,
                length_ambient=length_ambient,
                mean_variance=mean_variance,
                energy=res.energy,
                iterations=res.iterations,
                converged=res.converged,
            )
            entries.append((row, res.curve))
    return entries


def geodesic_comparison(
    m,
    endpoints,
    out_path: str | None = None,
    metric_kinds=COMPARISON_KINDS,
    n_points: int = 64,
    grid: int = 10,
    max_iter: int = 600,
    tol: float = 1e-8,
) -> list[ComparisonRow]:
    """Optimize a curve per (endpoint pair, metric) and tabulate lengths,
    ambient length, mean posterior variance and convergence.

    With out_path the table is also written as CSV.
    """
    rows = [
        row
        for row, _ in comparison_entries(
            m,
            endpoints,
            metric_kinds=metric_kinds,
            n_points=n_points,
            grid=grid,
            max_iter=max_iter,
            tol=tol,
        )
    ]
    if out_path is not None:
        export_comparison_csv(out_path, rows)
    return rows


def export_comparison_csv(path: str, rows: list[ComparisonRow]) -> None:
    write_csv(
        path,
        (
            (
                r.pair,
                r.metric_kind,
                r.length_riemann,
                r.length_finsler,
                r.length_ambient,
                r.mean_variance,
                r.energy,
                r.iterations,
                int(r.converged),
            )
            for r in rows
        ),
        header=[
            "pair",
            "metric",
            "length_riemann",
            "length_finsler",
            "length_ambient",
            "mean_variance",
            "energy",
            "iterations",
            "converged",
        ],
    )
