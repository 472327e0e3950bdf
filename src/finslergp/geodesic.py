"""Discrete curves and geodesics under the expected-norm metrics.

Curves are piecewise linear with a uniform parameter grid on [0, 1]; a
curve of N points has N-1 segments, velocity (p[i+1]-p[i])*(N-1) on each.
Lengths and energies follow the midpoint rule (second order), held by two
functions: `_segment_norms_sq` evaluates the norms at segment midpoints
and `_length_and_energy` weights each segment 1/(N-1). Geodesics minimize
the discretized energy by the library's one limited-memory BFGS with
Armijo backtracking (`_lbfgs`, shared with the GP fit), optionally seeded
by a shortest path on an 8-connected latent grid, found by Dijkstra's
search on the standard library's heap (no scipy). The energy gradient is
exact: the field's posterior and its derivative in z at the midpoints come
from one pass, and one chain rule through the norms' partials
(`metric._norm_partials`) gives both the velocity and the midpoint part.
The tests difference the whole energy as the slow reference.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _lbfgs
from .data import write_csv
from .fields import as_field, latent_lattice, padded_box
from .metric import (
    METRIC_KINDS,
    _check_kind,
    _norm_partials,
    _norms_from_forms,
    _sigma_and_signal_batch,
)

__all__ = [
    "METRIC_KINDS",
    "DiscreteCurve",
    "GeodesicResult",
    "line_curve",
    "resample_curve",
    "curve_energy",
    "curve_length",
    "energy_gradient",
    "grid_initialize",
    "minimize_energy",
    "geodesic_between",
    "export_curve_csv",
]

RIEMANN = "riemann"
EUCLID = "euclid"


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


def _segment_norms_sq(field, mids: np.ndarray, vels: np.ndarray, kinds) -> tuple:
    """Squared norm of each velocity at its midpoint, one array per kind in
    kinds (`NORM_KINDS`), from one `jacobian_batch` and one pass of the
    quadratic forms (none when every kind is euclid)."""
    if any(kind != EUCLID for kind in kinds):
        means, covs = field.jacobian_batch(mids)
        forms = [f[:, 0] for f in _sigma_and_signal_batch(means, covs, vels[:, None, :])]
    return tuple(
        np.einsum("nq,nq->n", vels, vels) if kind == EUCLID
        else _norms_from_forms(*forms, field.data_dim, kind)
        for kind in kinds
    )


def _length_and_energy(seg_sq: np.ndarray) -> tuple[float, float]:
    """The midpoint rule: length and energy of a curve whose N-1 segments
    have squared norms seg_sq, each segment weighted 1/(N-1)."""
    n1 = len(seg_sq)
    return float(np.sum(np.sqrt(seg_sq))) / n1, float(np.sum(seg_sq)) / n1


def _warn_if_outside(field, curve: DiscreteCurve, stacklevel: int = 3) -> None:
    lo, hi = padded_box(field)
    if np.any(curve.points < lo) or np.any(curve.points > hi):
        warnings.warn(
            "curve leaves the latent bounding box; the posterior reverts to the prior there",
            stacklevel=stacklevel,
        )


def _measure(m, c: DiscreteCurve, metric_kind: str) -> tuple[float, float]:
    """(length, energy) of c; warns at its caller's caller off the box."""
    _check_kind(metric_kind, METRIC_KINDS)
    field = as_field(m)
    if metric_kind != EUCLID:
        _warn_if_outside(field, c, stacklevel=4)
    return _length_and_energy(*_segment_norms_sq(field, c.midpoints, c.velocities, (metric_kind,)))


def curve_energy(m, c: DiscreteCurve, metric_kind: str) -> float:
    """Discretized energy: sum of squared segment norms times 1/(N-1)."""
    return _measure(m, c, metric_kind)[1]


def curve_length(m, c: DiscreteCurve, metric_kind: str) -> float:
    """Discretized length: sum of segment norms times 1/(N-1)."""
    return _measure(m, c, metric_kind)[0]


# ---------------------------------------------------------------------------
# energy gradient


def _segment_gradients(field, mids, vels, kind):
    """norm^2 per segment, (n,), with d(norm^2)/d(velocity) and
    d(norm^2)/d(midpoint), (n, q) each.

    All three come from one `jacobian_batch_dz` pass, by one chain rule
    through sigma = v^T Sigma v and signal = ||E[J] v||^2, whose partials
    p_sigma and p_signal `metric._norm_partials` gives for every kind:
    d/dv = 2 (p_sigma Sigma v + p_signal E[J]^T E[J] v) and
    d/dz = p_sigma dsigma/dz + p_signal dsignal/dz.
    """
    if kind == EUCLID:
        return *_segment_norms_sq(field, mids, vels, (EUCLID,)), 2.0 * vels, np.zeros_like(mids)
    means, covs, dmeans, dcovs = field.jacobian_batch_dz(mids)
    forms = _sigma_and_signal_batch(means, covs, vels[:, None, :])
    e, p_sigma, p_signal = _norm_partials(*forms, field.data_dim, kind)  # broadcast to (n, 1)
    jv = np.einsum("ndq,nq->nd", means, vels)
    sv = np.einsum("nqp,np->nq", covs, vels)
    jtjv = np.einsum("ndq,nd->nq", means, jv)
    dsigma = np.einsum("nabc,na,nb->nc", dcovs, vels, vels)
    dsignal = 2.0 * np.einsum("nd,ndqc,nq->nc", jv, dmeans, vels)
    return e[:, 0], 2.0 * (p_sigma * sv + p_signal * jtjv), p_sigma * dsigma + p_signal * dsignal


def _energy_and_gradient(field, c: DiscreteCurve, kind: str):
    """Length, energy and interior gradient (the midpoint rule's adjoint) of c, from one pass."""
    e, dv, dz = _segment_gradients(field, c.midpoints, c.velocities, kind)
    n1 = c.n_points - 1
    return *_length_and_energy(e), (0.5 * (dz[:-1] + dz[1:]) + n1 * (dv[:-1] - dv[1:])) / n1


def energy_gradient(m, c: DiscreteCurve, metric_kind: str) -> np.ndarray:
    """Energy gradient at the interior points, shape (N-2, q).

    Exact: the velocity and the midpoint dependence of every segment's
    squared norm, including the hypergeometric factor, come from one pass
    of the field's `jacobian_batch_dz` at the segment midpoints.
    """
    _check_kind(metric_kind, METRIC_KINDS)
    return _energy_and_gradient(as_field(m), c, metric_kind)[2]


# ---------------------------------------------------------------------------
# initialization


def _lattice_edges(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Each edge (u, v) of the 8-connected grid x grid lattice once, u < v,
    in the node numbering of `latent_lattice`; u ascends, and a node's edges
    run to (ix + 1, iy), (ix, iy + 1), (ix + 1, iy + 1), (ix + 1, iy - 1)."""
    us, vs = [], []
    for ix in range(grid):
        for iy in range(grid):
            for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < grid and 0 <= jy < grid:
                    us.append(ix * grid + iy)
                    vs.append(jx * grid + jy)
    return np.array(us), np.array(vs)


def _lattice_graph(field, grid: int, metric_kind: str) -> tuple[np.ndarray, ...]:
    """The field's `latent_lattice` nodes and its `_lattice_edges` (us, vs)
    with their weights: segment lengths under the metric, evaluated at the
    edge midpoints, at least 1e-12."""
    nodes = latent_lattice(field, grid)
    us, vs = _lattice_edges(grid)
    mids = 0.5 * (nodes[us] + nodes[vs])
    deltas = nodes[vs] - nodes[us]
    weights = np.sqrt(_segment_norms_sq(field, mids, deltas, (metric_kind,))[0])
    # strictly positive weights keep degenerate-metric regions traversable
    return nodes, us, vs, np.maximum(weights, 1e-12)


def _shortest_path(n_nodes: int, us, vs, weights, source: int, target: int) -> list[int]:
    """Nodes of a shortest path from source to target over the undirected
    edges (us[i], vs[i]) of nonnegative weights[i], by Dijkstra's search
    with a binary heap.

    Tie rule: the heap pops entries (distance, node) in tuple order, so of
    two nodes at one distance the lower-numbered settles first, and a
    node's predecessor changes only on a strictly shorter distance. Where
    no two paths tie, the path is the one every exact search returns.
    """
    # heapq maps a shared library of its own: imported here, a command that
    # runs no grid search (verify) does not pay its resident pages
    import heapq

    adjacency = [[] for _ in range(n_nodes)]
    for u, v, w in zip(us.tolist(), vs.tolist(), weights.tolist()):
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    dist = [math.inf] * n_nodes
    pred = [-1] * n_nodes
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == target:
            break
        if d > dist[u]:
            continue  # a stale entry: u settled at a shorter distance
        for v, w in adjacency[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                pred[v] = u
                heapq.heappush(heap, (dist[v], v))
    path = [target]
    while path[-1] != source:
        if pred[path[-1]] < 0:
            raise RuntimeError("grid path search failed on a connected grid")
        path.append(pred[path[-1]])
    return path[::-1]


def grid_initialize(
    m,
    start: np.ndarray,
    end: np.ndarray,
    grid: int = 10,
    metric_kind: str = RIEMANN,
    n_points: int = 64,
) -> DiscreteCurve:
    """Shortest path on an 8-connected latent grid, resampled to n_points.

    The grid is the field's `latent_lattice` over its padded box (a 2-d
    field and grid >= 2), where both endpoints must lie; edge weights are
    segment lengths under the chosen metric, evaluated at edge midpoints.
    The path runs between the lattice nodes nearest the endpoints, by
    `_shortest_path`: Dijkstra's search on a binary heap from the standard
    library, whose tie rule settles the lower-numbered of two nodes at one
    distance first.
    """
    _check_kind(metric_kind, METRIC_KINDS)
    field = as_field(m)
    nodes, us, vs, weights = _lattice_graph(field, grid, metric_kind)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    lo, hi = padded_box(field)
    for z, name in ((start, "start"), (end, "end")):
        if np.any(z < lo) or np.any(z > hi):
            raise ValueError(f"{name} point {z} outside the grid box [{lo}, {hi}]")
    i_start = int(np.argmin(np.sum((nodes - start) ** 2, axis=1)))
    i_end = int(np.argmin(np.sum((nodes - end) ** 2, axis=1)))
    path = _shortest_path(len(nodes), us, vs, weights, i_start, i_end)
    # a path of one node carries no route: through that node it is a detour
    route = [nodes[i] for i in path] if len(path) > 1 else []
    poly = [start] + route + [end]
    pts = [poly[0]]
    for p in poly[1:]:
        if np.linalg.norm(p - pts[-1]) > 1e-12:
            pts.append(p)
    if len(pts) < 2:
        pts = [start, end]
    return DiscreteCurve(_resample_polyline(np.array(pts), n_points))


# ---------------------------------------------------------------------------
# optimization


def minimize_energy(
    m,
    init: DiscreteCurve,
    metric_kind: str = RIEMANN,
    max_iter: int = 500,
    tol: float = _lbfgs.TOL,
    on_step=None,
) -> GeodesicResult:
    """`_lbfgs.minimize` on the energy of the interior points: converged once
    a step's predicted energy decrease is at most tol times the energy, or
    none decreases it at rounding scale; max_iter iterations return the last
    curve unconverged. The steepest-descent fallback step has length
    0.01 (1 + max |z|). on_step(energy) follows every accepted step."""
    _check_kind(metric_kind, METRIC_KINDS)
    if not 0.0 <= tol < math.inf or max_iter < 1:
        raise ValueError(
            f"need finite tol >= 0 and max_iter >= 1, got tol={tol}, max_iter={max_iter}"
        )
    field = as_field(m)
    start = DiscreteCurve(np.array(init.points, dtype=float))
    ends = float(np.max(np.abs(start.points[[0, -1]])))

    # one pass per trial curve; the accepted trial's gradient is the next
    # iteration's, and its curve and length are the returned ones
    def evaluate(x):
        curve = start.with_interior(x.reshape(-1, start.dim))
        length, energy, grad = _energy_and_gradient(field, curve, metric_kind)
        return energy, grad.ravel(), (curve, length)

    def fallback(x, g):
        scale = 1.0 + max(ends, float(np.max(np.abs(x))))
        return (-0.01 * scale / math.sqrt(float(g @ g))) * g

    res = _lbfgs.minimize(evaluate, start.points[1:-1].ravel(), fallback, max_iter, tol, on_step)
    curve, length = res.aux
    if metric_kind != EUCLID:
        _warn_if_outside(field, curve)
    return GeodesicResult(curve, res.value, length, metric_kind, res.iterations, res.converged)


def geodesic_between(
    m,
    start: np.ndarray,
    end: np.ndarray,
    metric_kind: str = RIEMANN,
    n_points: int = 64,
    grid: int = 0,
    max_iter: int = 600,
    tol: float = _lbfgs.TOL,
) -> GeodesicResult:
    """End-to-end geodesic: initialize, then refine coarse-to-fine.

    grid > 0 seeds the curve with a latent-grid shortest path; otherwise a
    straight line. The curve is optimized at 9/17/33 points before the final
    resolution, each level from the last one's minimum. That saves no
    iterations (seeded at 33 points directly, the pinwheel pipeline's curves
    take fewer); it picks which minimum, and those differ by 2 to 10 % in energy.
    """
    field = as_field(m)
    levels = [n for n in (9, 17, 33) if n < n_points] + [n_points]
    if grid:
        curve = grid_initialize(field, start, end, grid, metric_kind, levels[0])
    else:
        curve = line_curve(start, end, levels[0])
    total = 0
    for n in levels:
        if n != curve.n_points:
            curve = resample_curve(curve, n)
        result = minimize_energy(field, curve, metric_kind, max_iter=max_iter, tol=tol)
        curve = result.curve
        total += result.iterations
    return dataclasses.replace(result, iterations=total)


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
