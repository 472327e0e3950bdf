"""Verification sweeps and geodesic comparison runs.

Three harnesses: a Jacobian-truncation sweep showing the norm and volume
gaps close like O(1/D) as the output dimension grows, a violation sweep
checking every norm/functional/volume inequality on random ensembles, and
a per-endpoint-pair geodesic comparison table. All outputs are plain CSV
with deterministic content for a fixed seed.

The two sweeps, which `verify` runs, use numpy only, so `verify` never
loads scipy: the volume check's smallest generalized eigenvalue of
(E[J]^T E[J], Sigma) comes from whitening by Sigma's Cholesky factor, for
all volume specs in one batch (`_smallest_noncentrality`). Every norm kind
comes from sigma and the signal formed once per set of directions: the
truncation sweep (per dimension, its directions and volume half-turn
together) and the volume checks (one D per spec) take theirs from one
`metric._norms_sq_of_kinds` call; the spec and curve checks apply
`_norms_from_forms` per kind to forms of their own. Volumes go through
`measure._volumes_from_norms_sq`.

Each inequality is checked as a named boolean array, True where it holds,
one entry per spec, curve, volume spec or swept dimension; a report counts
its False entries as violations and all entries as trials (`_with_checks`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import _lbfgs
from .data import write_csv
from .fields import GpField, SyntheticField, as_field
from .geodesic import (
    DiscreteCurve, _length_and_energy, _segment_norms_sq, _warn_if_outside, geodesic_between
)
from .gp import _posterior_mean_var_batch
from .measure import _evaluated_directions, _ratio_bounds_from_omega, _volumes_from_norms_sq
from .metric import (
    _norms_from_forms, _norms_sq_of_kinds, _sigma_and_signal, _sigma_and_signal_batch, gap_bound
)
from .randmat import ScalarWishart, batch_rng, wishart_scalar_moments

__all__ = [
    "ConvergenceRow",
    "TruncationEnsemble",
    "ViolationReport",
    "ComparisonRow",
    "make_truncation_ensemble",
    "truncation_sweep",
    "bound_sweep",
    "comparison_entries",
    "export_convergence_csv",
    "export_violations_csv",
    "export_comparison_csv",
]

SLACK = 1e-9

COMPARISON_KINDS = ("riemann", "finsler", "euclid")

# polar quadrature angles of the volume gaps of both sweeps
VOLUME_ANGLES = 64


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

    @functools.cached_property
    def m_constant(self) -> float:
        """Smallest M with omega_D <= M * D for every spec, direction and D.

        Row i contributes at most ||row_i||^2 / lambda_min(cov) to the
        noncentrality per dimension, so the maximum over rows and specs
        works for every unit direction. Computed on first access, with one
        batched `eigvalsh` over the specs.
        """
        row_sq = np.max(np.sum(self.means**2, axis=2), axis=1)
        lam = np.linalg.eigvalsh(self.covs)[:, 0]
        return float(np.max(row_sq / lam, initial=0.0))


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
    2-D latent space. Each dimension takes riemann, finsler and omega of
    the directions and of the first `VOLUME_ANGLES` / 2 volume angles
    together from one `_norms_sq_of_kinds` call, bit for bit the values of
    `relative_gap` and `bh_volume` per spec; omega is kept for the
    directions only.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("need at least one dimension")
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

    # the unit directions of the norm gaps, then the half-turn of the volume
    # angles, in one (n, v_samples + K/2, 2) array of directions per spec
    angles = _evaluated_directions(VOLUME_ANGLES)
    V = np.concatenate([dirs, np.broadcast_to(angles, (len(dirs), *angles.shape))], axis=1)
    rows = []
    kinds = ("riemann", "finsler", "omega")
    for d in dims:
        sq_r, sq_f, w = _norms_sq_of_kinds(ensemble.means[:, :d], ensemble.covs, d, V, kinds)
        upper, finsler = np.sqrt(sq_r[:, :v_samples]), np.sqrt(sq_f[:, :v_samples])
        gaps = (upper - finsler) / np.where(upper == 0.0, 1.0, upper)
        v_r = _volumes_from_norms_sq(sq_r[:, v_samples:], VOLUME_ANGLES, "riemann")
        v_f = _volumes_from_norms_sq(sq_f[:, v_samples:], VOLUME_ANGLES, "finsler")
        gap_norm = float(np.mean(gaps))
        rows.append(
            ConvergenceRow(
                d=d,
                gap_norm=gap_norm,
                gap_volume=float(np.mean((v_r - v_f) / v_r)),
                bound=float(np.mean(gap_bound(d, w[:, :v_samples]))),
                gap_times_d=d * gap_norm,
            )
        )
    return rows


def _convergence_checks(rows: list[ConvergenceRow], m_constant: float) -> dict[str, np.ndarray]:
    # per row: the gap lies in [0, bound], and D * gap stays under 1 + M
    gap, bound, scaled = (
        np.array([getattr(r, name) for r in rows]) for name in ("gap_norm", "bound", "gap_times_d")
    )
    return {
        "trunc_gap_range": (-SLACK <= gap) & (gap <= bound + SLACK),
        "trunc_gap_scaled": ~(scaled > 1.0 + m_constant + SLACK),
    }


def export_convergence_csv(path: str, rows: list[ConvergenceRow]) -> None:
    write_csv(path, map(astuple, rows), header=[f.name for f in fields(ConvergenceRow)])


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


def _draw_spec(rng, q: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random spec: mean (D, q) uniform on [-1, 1] with D in 1..100,
    covariance A^T A / q + 0.1 I (A standard normal, q in 1..5 unless
    given) and a unit direction, drawn in that order. The covariance is
    symmetrized; its eigenvalues are at least 0.1, so that is exactly what
    `JacobianPosterior`'s clamp returns for it."""
    d = int(rng.integers(1, 101))
    if q is None:
        q = int(rng.integers(1, 6))
    mean = rng.uniform(-1.0, 1.0, (d, q))
    a = rng.standard_normal((q, q)) / math.sqrt(q)
    cov = a.T @ a + 0.1 * np.eye(q)
    v = rng.standard_normal(q)
    v /= np.linalg.norm(v)
    return mean, 0.5 * (cov + cov.T), v


def _random_curve(rng, q: int, n_points: int = 16) -> DiscreteCurve:
    a = rng.uniform(-1.5, 1.5, q)
    b = rng.uniform(-1.5, 1.5, q)
    bow = rng.normal(0.0, 0.5, q)
    t = np.linspace(0.0, 1.0, n_points)[:, None]
    return DiscreteCurve((1.0 - t) * a + t * b + np.sin(math.pi * t) * bow)


def _draw_sweep(n_specs: int, seed: int) -> tuple[list, list, list]:
    """Everything `bound_sweep` draws: the (mean, cov, v) specs, the (field,
    curve) pairs and the q = 2 volume specs of every tenth spec. Drawn in the
    order the per-spec loop took them: spec i from stream 41, then for
    every tenth i a field and a curve from the same stream and a volume
    spec from stream 100000 + i."""
    rng = batch_rng(seed, 41)
    specs, curves, volumes = [], [], []
    for i in range(n_specs):
        specs.append(_draw_spec(rng))
        if i % 10 != 0:
            continue
        fld = SyntheticField(
            seed=int(rng.integers(0, 2**31)),
            latent_dim=int(rng.integers(2, 4)),
            data_dim=int(rng.integers(2, 33)),
        )
        curves.append((fld, _random_curve(rng, fld.latent_dim)))
        volumes.append(_draw_spec(batch_rng(seed, 100_000 + i), q=2))
    return specs, curves, volumes


# norm kinds of the per-spec and per-segment checks
SWEEP_KINDS = ("alpha_sigma", "finsler", "riemann", "omega")


def _spec_values(specs: list) -> dict[str, np.ndarray]:
    """Per spec, the norms of v ("alpha_sigma", "finsler", "riemann"), its
    "omega" and `relative_gap`'s ("gap", "wishart", "jensen"). Each spec's
    sigma and signal come from the scalar norms' `_sigma_and_signal`, then
    each kind in `SWEEP_KINDS` is one `_norms_from_forms` call over all
    specs with one D per spec, so the riemann, alpha_sigma and omega values
    are the scalar functions' bit for bit. The Jensen bound
    Var[z] / (2 E[z]^2) goes through the scalar moment formulas per spec,
    a separate code path on purpose."""
    sigma, signal = np.array([_sigma_and_signal(m, c, v) for m, c, v in specs]).T
    dims = np.array([len(m) for m, _, _ in specs])
    out = {kind: _norms_from_forms(sigma, signal, dims, kind) for kind in SWEEP_KINDS}
    for kind in ("alpha_sigma", "finsler", "riemann"):
        out[kind] = np.sqrt(out[kind])
    upper, w = out["riemann"], out["omega"]
    out["gap"] = np.where(
        upper == 0.0, 0.0, (upper - out["finsler"]) / np.where(upper == 0.0, 1.0, upper)
    )
    out["wishart"] = gap_bound(dims, w)
    out["jensen"] = np.zeros(len(specs))  # 0 in the deterministic limit
    for i in np.nonzero(np.isfinite(w))[0]:
        m1, m2 = wishart_scalar_moments(
            ScalarWishart(dof=int(dims[i]), sigma=float(sigma[i]), omega=float(w[i]))
        )
        out["jensen"][i] = (m2 - m1 * m1) / (2.0 * m1 * m1)
    return out


def _norm_checks(specs: list) -> dict[str, np.ndarray]:
    # the sandwich and relative_gap's two bounds, for every spec
    vals = _spec_values(specs)
    lower, finsler, upper, gap = (vals[k] for k in ("alpha_sigma", "finsler", "riemann", "gap"))
    return {
        "norm_sandwich": (lower <= finsler + SLACK) & (finsler <= upper + SLACK),
        "norm_gap_range": (-SLACK <= gap) & (gap <= vals["wishart"] + SLACK),
        "norm_gap_jensen": gap <= vals["jensen"] + SLACK,
    }


def _curve_checks(curves: list) -> dict[str, np.ndarray]:
    # length and energy orderings and gap bounds of every curve: each
    # field's segment forms from its one jacobian_batch, then one
    # _norms_from_forms call per kind over the segments of all curves
    forms = [
        _sigma_and_signal_batch(*fld.jacobian_batch(c.midpoints), c.velocities[:, None, :])
        for fld, c in curves
    ]
    sigma, signal = (np.concatenate(f)[:, 0] for f in zip(*forms))
    sizes = [len(f[0]) for f in forms]
    dims = np.repeat([fld.data_dim for fld, _ in curves], sizes)
    seg_sq = {kind: _norms_from_forms(sigma, signal, dims, kind) for kind in SWEEP_KINDS}
    starts = np.cumsum(sizes)[:-1]  # first segment of each curve after the first
    (l_a, e_a), (l_f, e_f), (l_r, e_r) = (
        np.array([_length_and_energy(sq) for sq in np.split(seg_sq[kind], starts)]).T
        for kind in ("alpha_sigma", "finsler", "riemann")
    )
    # largest per-segment norm gap bound along each curve
    m = np.array([np.max(b) for b in np.split(gap_bound(dims, seg_sq["omega"]), starts)])
    # a curve of zero riemann length passes the gap check; 1.0 stands in
    # for its divisors
    moved = l_r > 0.0
    l_r1, e_r1 = np.where(moved, l_r, 1.0), np.where(moved, e_r, 1.0)
    return {
        "curve_length_ordering": (l_a <= l_f + SLACK) & (l_f <= l_r + SLACK),
        "curve_energy_ordering": (e_a <= e_f + SLACK) & (e_f <= e_r + SLACK),
        "curve_length_energy": (
            (l_a**2 <= e_a + SLACK) & (l_f**2 <= e_f + SLACK) & (l_r**2 <= e_r + SLACK)
        ),
        "curve_gap_bounds": ~moved | (
            ((l_r - l_f) / l_r1 <= m + SLACK) & ((e_r - e_f) / e_r1 <= 2.0 * m + m * m + SLACK)
        ),
    }


def _smallest_noncentrality(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Smallest noncentrality over all directions for each of n specs (means
    (n, D, q), covs (n, q, q)): the smallest generalized eigenvalue of
    (E[J]^T E[J], Sigma), clipped at 0. Whitening by Sigma = L L^T turns it
    into the smallest eigenvalue of L^-1 E[J]^T E[J] L^-T."""
    gram = np.einsum("ndq,ndp->nqp", means, means)
    chol = np.linalg.cholesky(covs)
    half = np.linalg.solve(chol, gram)  # L^-1 G, whose transpose is G L^-T
    white = np.linalg.solve(chol, half.transpose(0, 2, 1))
    return np.maximum(np.linalg.eigvalsh(white)[:, 0], 0.0)


def _volume_checks(volumes: list) -> dict[str, np.ndarray]:
    # volume ordering and the eigenvalue bound on the volume ratio: every
    # kind's squared norms at the volume half-turn from one _norms_sq_of_kinds
    # call over all volume specs, their q = 2 means zero-padded to the largest
    # D (zero rows of E[J] leave the Gram unchanged)
    dims = np.array([len(m) for m, _, _ in volumes])
    means = np.zeros((len(volumes), dims.max(), 2))
    for i, (m, _, _) in enumerate(volumes):
        means[i, : dims[i]] = m
    covs = np.stack([c for _, c, _ in volumes])
    kinds = ("alpha_sigma", "finsler", "riemann")
    values_sq = _norms_sq_of_kinds(means, covs, dims, _evaluated_directions(VOLUME_ANGLES), kinds)
    v_a, v_f, v_r = (
        _volumes_from_norms_sq(sq, VOLUME_ANGLES, kind) for sq, kind in zip(values_sq, kinds)
    )
    ratio = (v_r - v_f) / v_r
    w_min = _smallest_noncentrality(means, covs)
    eig_bound = _ratio_bounds_from_omega(w_min[:, None], dims[:, None])
    return {
        "volume_ordering": (v_a <= v_f * (1.0 + SLACK)) & (v_f <= v_r * (1.0 + SLACK)),
        "volume_gap_bound": (-SLACK <= ratio) & (ratio <= eig_bound + SLACK),
    }


def _with_checks(report: ViolationReport, checks: dict[str, np.ndarray]) -> ViolationReport:
    """The report with each named check added: its boolean array is True
    where the inequality holds, its violations are the False entries and
    its trials all entries."""
    return replace(
        report,
        counts={**report.counts, **{name: int(np.sum(~ok)) for name, ok in checks.items()}},
        trials={**report.trials, **{name: ok.size for name, ok in checks.items()}},
    )


def bound_sweep(n_specs: int = 10_000, seed: int = 0) -> ViolationReport:
    """Check every norm, curve-functional and volume inequality on random
    ensembles; returns the per-inequality violation and trial counts.

    Norm checks run on every spec; curve and volume checks run on every
    tenth spec. The sweep draws first and evaluates after. The draw phase
    takes every spec, field, curve and volume spec from the seed's streams
    in one fixed order (`_draw_sweep`). The evaluation phase forms each
    spec's and each curve segment's sigma = v^T Sigma v and signal =
    ||E[J] v||^2 once and evaluates each norm kind in one
    `_norms_from_forms` call over all specs (one D per spec) and one over
    the segments of all curves; the volume specs take theirs from one
    `_norms_sq_of_kinds` call at the volume angles. The Jensen bound goes
    through `randmat.wishart_scalar_moments` per spec, a separate code path
    on purpose.
    """
    if n_specs < 100:
        raise ValueError("need at least 100 specs for a meaningful sweep")
    specs, curves, volumes = _draw_sweep(n_specs, seed)
    checks = {**_norm_checks(specs), **_curve_checks(curves), **_volume_checks(volumes)}
    return _with_checks(ViolationReport(seed=seed, n_specs=n_specs), checks)


def export_violations_csv(path: str, report: ViolationReport) -> None:
    rows = ((name, report.trials[name], report.counts[name]) for name in sorted(report.counts))
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
    tol: float = _lbfgs.TOL,
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
            row = ComparisonRow(
                i, kind, l_r, l_f, *_ambient_and_variance(fld, res.curve),
                res.energy, res.iterations, res.converged,
            )
            entries.append((row, res.curve))
    return entries


def export_comparison_csv(path: str, rows: list[ComparisonRow]) -> None:
    write_csv(
        path,
        map(astuple, rows),
        header=["pair", "metric", "length_riemann", "length_finsler", "length_ambient",
                "mean_variance", "energy", "iterations", "converged"],
    )
