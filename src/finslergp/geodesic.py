"""Discrete curves and geodesics under the expected-norm metrics.

Curves are piecewise linear with a uniform parameter grid on [0, 1]; a
curve of N points has N-1 segments, velocity (p[i+1]-p[i])*(N-1) on each,
and all metric quantities evaluated at segment midpoints (second-order
quadrature). Geodesics minimize the discretized energy by limited-memory
BFGS (the two-loop recursion over the last 10 steps, in numpy) with Armijo
backtracking, optionally seeded by a shortest path on an 8-connected
latent grid. The energy gradient is exact: the field's posterior and its
derivative in z at the midpoints come from one pass, and differentiating
the norms through them gives both the velocity and the midpoint part.
`energy_gradient_fd` differences the whole energy as the slow reference.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .data import write_csv
from .fields import as_field, latent_lattice, padded_box
from .metric import _finsler_terms, alpha_coefficient, norms_sq
from .specfun import kummer_1f1_array

__all__ = [
    "METRIC_KINDS",
    "DiscreteCurve",
    "GeodesicResult",
    "line_curve",
    "resample_curve",
    "curve_energy",
    "energy_riemannian",
    "energy_finsler",
    "curve_length",
    "energy_gradient",
    "energy_gradient_fd",
    "grid_initialize",
    "minimize_energy",
    "geodesic_between",
    "export_curve_csv",
]

RIEMANN = "riemann"
FINSLER = "finsler"
EUCLID = "euclid"
ALPHA_SIGMA = "alpha_sigma"
METRIC_KINDS = (RIEMANN, FINSLER, EUCLID, ALPHA_SIGMA)

_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_LBFGS_MEMORY = 10
_CONVERGED_STREAK = 10


@dataclass(frozen=True, eq=False)
class DiscreteCurve:
    """Piecewise-linear curve on a uniform parameter grid.

    Endpoints are fixed by convention: optimizers only ever move the
    interior through with_interior, which re-attaches the original ends.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 3:
            raise ValueError("a curve needs at least three points (N x q)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("curve points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def velocities(self) -> np.ndarray:
        """Per-segment velocity (p[i+1] - p[i]) * (N - 1), shape (N-1, q)."""
        return np.diff(self.points, axis=0) * (self.n_points - 1)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.points[:-1] + self.points[1:])

    def with_interior(self, interior: np.ndarray) -> "DiscreteCurve":
        pts = np.empty_like(self.points)
        pts[0] = self.points[0]
        pts[-1] = self.points[-1]
        pts[1:-1] = interior
        return DiscreteCurve(pts)


@dataclass(frozen=True, eq=False)
class GeodesicResult:
    curve: DiscreteCurve
    energy: float
    length: float
    metric_kind: str
    iterations: int
    converged: bool


def line_curve(start: np.ndarray, end: np.ndarray, n_points: int) -> DiscreteCurve:
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    t = np.linspace(0.0, 1.0, n_points)[:, None]
    return DiscreteCurve((1.0 - t) * start + t * end)


def _resample_polyline(pts: np.ndarray, n: int) -> np.ndarray:
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0.0:
        return np.repeat(pts[:1], n, axis=0)
    t = np.linspace(0.0, s[-1], n)
    out = np.empty((n, pts.shape[1]))
    for j in range(pts.shape[1]):
        out[:, j] = np.interp(t, s, pts[:, j])
    return out


def resample_curve(c: DiscreteCurve, n_points: int) -> DiscreteCurve:
    """Same geometric path, re-marked at n_points by Euclidean arc length."""
    return DiscreteCurve(_resample_polyline(c.points, n_points))


# ---------------------------------------------------------------------------
# segment norms


def _check_kind(kind: str) -> None:
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}, expected one of {METRIC_KINDS}")


def _segment_norms_sq(field, mids: np.ndarray, vels: np.ndarray, kind: str) -> np.ndarray:
    """Squared metric norm of each velocity, evaluated at its midpoint."""
    if kind == EUCLID:
        return np.einsum("nq,nq->n", vels, vels)
    means, covs = field.jacobian_batch(mids)
    return norms_sq(means, covs, field.data_dim, vels[:, None, :], kind)[:, 0]


def _warn_if_outside(field, curve: DiscreteCurve) -> None:
    lo, hi = padded_box(field)
    if np.any(curve.points < lo) or np.any(curve.points > hi):
        warnings.warn(
            "curve leaves the latent bounding box; the posterior reverts to the prior there",
            stacklevel=3,
        )


def curve_energy(m, c: DiscreteCurve, metric_kind: str) -> float:
    """Discretized energy: sum of squared segment norms times 1/(N-1)."""
    _check_kind(metric_kind)
    field = as_field(m)
    if metric_kind != EUCLID:
        _warn_if_outside(field, c)
    e = _segment_norms_sq(field, c.midpoints, c.velocities, metric_kind)
    return float(np.sum(e)) / (c.n_points - 1)


def energy_riemannian(m, c: DiscreteCurve) -> float:
    return curve_energy(m, c, RIEMANN)


def energy_finsler(m, c: DiscreteCurve) -> float:
    return curve_energy(m, c, FINSLER)


def curve_length(m, c: DiscreteCurve, metric_kind: str) -> float:
    """Discretized length: sum of segment norms times 1/(N-1)."""
    _check_kind(metric_kind)
    field = as_field(m)
    if metric_kind != EUCLID:
        _warn_if_outside(field, c)
    e = _segment_norms_sq(field, c.midpoints, c.velocities, metric_kind)
    return float(np.sum(np.sqrt(e))) / (c.n_points - 1)


# ---------------------------------------------------------------------------
# energy gradient


def _segment_gradients(field, mids, vels, kind):
    """norm^2 per segment, (n,), with d(norm^2)/d(velocity) and
    d(norm^2)/d(midpoint), (n, q) each.

    All three come from one `jacobian_batch_dz` pass. With sigma = v^T Sigma v,
    s = ||E[J] v||^2 and w = s / sigma, the midpoint part follows from the
    derivatives of sigma and s in z: riemann ds + D dsigma; finsler
    alpha ((h^2 + h hx w) dsigma - h hx ds), where h = 1F1(-1/2, D/2, -w/2)
    and hx its derivative in the last argument, the same arrays as in the
    velocity part; ds in the deterministic limit; alpha_sigma alpha dsigma.
    """
    if kind == EUCLID:
        return np.einsum("nq,nq->n", vels, vels), 2.0 * vels, np.zeros_like(mids)
    means, covs, dmeans, dcovs = field.jacobian_batch_dz(mids)
    d = field.data_dim
    if kind == FINSLER:
        e, sigma, signal, live, h = _finsler_terms(means, covs, d, vels[:, None, :])
        e, sigma, signal, live = e[:, 0], sigma[:, 0], signal[:, 0], live[:, 0]
    else:
        e = norms_sq(means, covs, d, vels[:, None, :], kind)[:, 0]
    sv = np.einsum("nqp,np->nq", covs, vels)
    dsigma = np.einsum("nabc,na,nb->nc", dcovs, vels, vels)
    if kind == ALPHA_SIGMA:
        a = alpha_coefficient(d)
        return e, 2.0 * a * sv, a * dsigma
    jv = np.einsum("ndq,nq->nd", means, vels)
    jtjv = np.einsum("ndq,nd->nq", means, jv)
    dsignal = 2.0 * np.einsum("nd,ndqc,nq->nc", jv, dmeans, vels)
    if kind == RIEMANN:
        return e, 2.0 * (jtjv + d * sv), dsignal + d * dsigma
    grad_v = 2.0 * jtjv  # the deterministic limit
    grad_z = dsignal
    w = signal[live] / sigma[live]
    b = 0.5 * d
    hx = (-0.5 / b) * kummer_1f1_array(0.5, b + 1.0, -0.5 * w)  # d 1F1 / dx at x = -w/2
    # norm^2 = alpha sigma h(w)^2 with dh/dw = -hx/2
    a = alpha_coefficient(d)
    grad_v[live] = (2.0 * a) * (
        (h * h + h * hx * w)[:, None] * sv[live] - (h * hx)[:, None] * jtjv[live]
    )
    grad_z[live] = a * (
        (h * h + h * hx * w)[:, None] * dsigma[live] - (h * hx)[:, None] * dsignal[live]
    )
    return e, grad_v, grad_z


def _energy_and_gradient(field, c: DiscreteCurve, kind: str):
    """Squared segment norms, energy and interior gradient of c, from one pass."""
    e, dv, dz = _segment_gradients(field, c.midpoints, c.velocities, kind)
    n1 = c.n_points - 1
    return e, float(np.sum(e)) / n1, (0.5 * (dz[:-1] + dz[1:]) + n1 * (dv[:-1] - dv[1:])) / n1


def energy_gradient(m, c: DiscreteCurve, metric_kind: str) -> np.ndarray:
    """Energy gradient at the interior points, shape (N-2, q).

    Exact: the velocity and the midpoint dependence of every segment's
    squared norm, including the hypergeometric factor, come from one pass
    of the field's `jacobian_batch_dz` at the segment midpoints.
    """
    _check_kind(metric_kind)
    return _energy_and_gradient(as_field(m), c, metric_kind)[2]


def energy_gradient_fd(m, c: DiscreteCurve, metric_kind: str, step: float = 1e-5) -> np.ndarray:
    """All-finite-difference energy gradient; the slow reference path."""
    _check_kind(metric_kind)
    field = as_field(m)
    n, q = c.points.shape
    grad = np.empty((n - 2, q))
    for k in range(1, n - 1):
        for j in range(q):
            plus = c.points.copy()
            plus[k, j] += step
            minus = c.points.copy()
            minus[k, j] -= step
            ep = _segment_norms_sq(field, *_mv(plus), metric_kind).sum() / (n - 1)
            em = _segment_norms_sq(field, *_mv(minus), metric_kind).sum() / (n - 1)
            grad[k - 1, j] = (ep - em) / (2.0 * step)
    return grad


def _mv(pts):
    return 0.5 * (pts[:-1] + pts[1:]), np.diff(pts, axis=0) * (len(pts) - 1)


# ---------------------------------------------------------------------------
# initialization


def grid_initialize(
    m,
    start: np.ndarray,
    end: np.ndarray,
    grid: int = 10,
    metric_kind: str = RIEMANN,
    n_points: int = 64,
) -> DiscreteCurve:
    """Shortest path on an 8-connected latent grid, resampled to n_points.

    The grid is the field's `latent_lattice` over its padded box, where
    both endpoints must lie; edge weights are segment lengths under the
    chosen metric, evaluated at edge midpoints.
    """
    _check_kind(metric_kind)
    field = as_field(m)
    if field.latent_dim != 2:
        raise ValueError("grid initialization requires a 2-d latent space")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    lo, hi = padded_box(field)
    for z, name in ((start, "start"), (end, "end")):
        if np.any(z < lo) or np.any(z > hi):
            raise ValueError(f"{name} point {z} outside the grid box [{lo}, {hi}]")

    nodes = latent_lattice(field, grid)

    us, vs = [], []
    for ix in range(grid):
        for iy in range(grid):
            u = ix * grid + iy
            for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < grid and 0 <= jy < grid:
                    us.append(u)
                    vs.append(jx * grid + jy)
    us = np.array(us)
    vs = np.array(vs)
    mids = 0.5 * (nodes[us] + nodes[vs])
    deltas = nodes[vs] - nodes[us]
    weights = np.sqrt(_segment_norms_sq(field, mids, deltas, metric_kind))
    # strictly positive weights keep degenerate-metric regions traversable
    weights = np.maximum(weights, 1e-12)

    graph = csr_matrix((weights, (us, vs)), shape=(grid * grid, grid * grid))
    i_start = int(np.argmin(np.sum((nodes - start) ** 2, axis=1)))
    i_end = int(np.argmin(np.sum((nodes - end) ** 2, axis=1)))
    _, pred = dijkstra(
        graph, directed=False, indices=i_start, return_predecessors=True
    )
    path = [i_end]
    while path[-1] != i_start:
        prev = pred[path[-1]]
        if prev < 0:
            raise RuntimeError("grid path search failed on a connected grid")
        path.append(int(prev))
    poly = [start] + [nodes[i] for i in reversed(path)] + [end]
    pts = [poly[0]]
    for p in poly[1:]:
        if np.linalg.norm(p - pts[-1]) > 1e-12:
            pts.append(p)
    if len(pts) < 2:
        pts = [start, end]
    return DiscreteCurve(_resample_polyline(np.array(pts), n_points))


# ---------------------------------------------------------------------------
# optimization


def _lbfgs_direction(g: np.ndarray, history) -> np.ndarray:
    """Two-loop recursion: minus the inverse-Hessian estimate of the
    (s, y, 1/s^T y) pairs in history, oldest first, applied to g, with the
    initial estimate scaled by s^T y / y^T y of the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    s, y, _ = history[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def minimize_energy(
    m,
    init: DiscreteCurve,
    metric_kind: str = RIEMANN,
    max_iter: int = 500,
    tol: float = 1e-8,
    on_step=None,
) -> GeodesicResult:
    """Limited-memory BFGS on the curve energy with Armijo backtracking.

    The interior points move along the two-loop L-BFGS direction built from
    the last 10 accepted steps with positive curvature; each step starts at
    length 1 and is halved until the Armijo condition (c = 1e-4) holds, so
    accepted energies never increase. Without history (the first step, or
    after a direction that does not descend) the step is steepest descent of
    Euclidean length 0.01 (1 + max |z|); a failed line search clears the
    history and retries once that way before the curve counts as
    stationary. Convergence is declared after 10 consecutive iterations with
    relative energy change below tol; hitting max_iter first returns the
    best curve with converged=False. on_step(energy) is called after every
    accepted step.
    """
    _check_kind(metric_kind)
    if not tol >= 0.0 or max_iter < 1:
        raise ValueError(f"need tol >= 0 and max_iter >= 1, got tol={tol}, max_iter={max_iter}")
    field = as_field(m)
    cur = DiscreteCurve(np.array(init.points, dtype=float))
    # one pass per trial curve; the accepted trial's gradient is the next
    # iteration's, and its segment norms give the returned length
    seg, energy, grad = _energy_and_gradient(field, cur, metric_kind)
    history = deque(maxlen=_LBFGS_MEMORY)
    streak = 0
    iterations = 0
    converged = False

    for it in range(max_iter):
        g = grad.ravel()
        gnorm2 = float(g @ g)
        if gnorm2 == 0.0:
            converged = True
            break
        iterations = it + 1
        x = cur.points[1:-1].ravel()
        while True:
            direction = _lbfgs_direction(g, history) if history else None
            # "not < 0" also rejects a NaN slope
            if direction is None or not float(direction @ g) < 0.0:
                history.clear()
                scale = 1.0 + float(np.max(np.abs(cur.points)))
                direction = (-0.01 * scale / math.sqrt(gnorm2)) * g
            slope = float(direction @ g)
            step = 1.0
            accepted = False
            for _ in range(60):
                cand = cur.with_interior((x + step * direction).reshape(grad.shape))
                seg_new, e_new, g_new = _energy_and_gradient(field, cand, metric_kind)
                if e_new <= energy + _ARMIJO_C * step * slope:
                    accepted = True
                    break
                step *= _ARMIJO_SHRINK
            if accepted or not history:
                break
            history.clear()
        if not accepted:
            # no decrease at machine scale: numerically stationary
            converged = True
            break
        s = cand.points[1:-1].ravel() - x
        y = (g_new - grad).ravel()
        sy = float(s @ y)
        if sy > 0.0:
            history.append((s, y, 1.0 / sy))
        rel = abs(energy - e_new) / max(energy, 1e-300)
        cur, seg, energy, grad = cand, seg_new, e_new, g_new
        if on_step is not None:
            on_step(energy)
        streak = streak + 1 if rel < tol else 0
        if streak >= _CONVERGED_STREAK:
            converged = True
            break

    if metric_kind != EUCLID:
        _warn_if_outside(field, cur)
    return GeodesicResult(
        curve=cur,
        energy=float(energy),
        length=float(np.sum(np.sqrt(seg))) / (cur.n_points - 1),
        metric_kind=metric_kind,
        iterations=iterations,
        converged=converged,
    )


def geodesic_between(
    m,
    start: np.ndarray,
    end: np.ndarray,
    metric_kind: str = RIEMANN,
    n_points: int = 64,
    grid: int = 0,
    max_iter: int = 600,
    tol: float = 1e-8,
) -> GeodesicResult:
    """End-to-end geodesic: initialize, then refine coarse-to-fine.

    grid > 0 seeds the curve with a latent-grid shortest path; otherwise a
    straight line. Optimizing at 9/17/33 points before the final resolution
    sidesteps the ill-conditioning of fine discretizations.
    """
    field = as_field(m)
    levels = [n for n in (9, 17, 33) if n < n_points] + [n_points]
    if grid:
        curve = grid_initialize(field, start, end, grid, metric_kind, levels[0])
    else:
        curve = line_curve(start, end, levels[0])
    total = 0
    result = None
    for n in levels:
        if n != curve.n_points:
            curve = resample_curve(curve, n)
        result = minimize_energy(field, curve, metric_kind, max_iter=max_iter, tol=tol)
        curve = result.curve
        total += result.iterations
    return GeodesicResult(
        curve=result.curve,
        energy=result.energy,
        length=result.length,
        metric_kind=metric_kind,
        iterations=total,
        converged=result.converged,
    )


# ---------------------------------------------------------------------------
# export


def export_curve_csv(path: str, c: DiscreteCurve, m=None) -> None:
    """Curve as CSV: t, latent coordinates and the field's `decode_batch` points."""
    header = ["t"] + [f"z_{j + 1}" for j in range(c.dim)]
    t = np.linspace(0.0, 1.0, c.n_points)
    cols = [t, *c.points.T]
    if m is not None:
        field = as_field(m)
        if hasattr(field, "decode_batch"):
            decoded = field.decode_batch(c.points)
            header += [f"f_{j + 1}" for j in range(decoded.shape[1])]
            cols += list(decoded.T)
    write_csv(path, zip(*cols), header=header)
