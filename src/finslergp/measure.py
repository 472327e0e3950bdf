"""Indicatrices and volume measures on 2-D latent spaces.

The indicatrix at a point is the unit ball boundary {v : norm(v) = 1}; by
1-homogeneity its polar radius is exactly 1/norm(e(theta)), so no contour
extraction is needed. Volumes follow the unit-ball-ratio convention
pi / area(indicatrix), evaluated with polygonal polar quadrature; for the
expected-norm (Riemannian) metric this reproduces sqrt(det E[G]).

Radii come from `metric.norms_sq`, which evaluates the angles of all
points in one call: one point for `indicatrix`, `bh_volume` and
`volume_ratio_bound`. `volume_field` forms sigma and the signal of every
grid point and angle once, and takes its three volume kinds and the ratio
bound's omega from them (`metric._norms_sq_of_kinds`). Every norm kind
is even bit for bit, and for even K the directions at the second K/2 angles
are the exact negations of the first, so only the first half-turn is
evaluated and its values are repeated for the second
(`_evaluated_directions`). The step from those squared norms to volumes
(degeneracy check, radii, polygon area) has one home,
`_volumes_from_norms_sq`: `bh_volumes` goes through it, and so do the
verification sweeps, which form the norms of several kinds from one pass
of sigma and the signal. The per-point functions take a `MetricPoint` or a
`JacobianPosterior`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import write_csv
from .fields import JacobianPosterior, as_field, latent_lattice
from .metric import METRIC_KINDS, MetricPoint, _check_kind, _norms_sq_of_kinds, gap_bound, norms_sq

__all__ = [
    "Indicatrix",
    "VolumeField",
    "indicatrix",
    "bh_volume",
    "bh_volumes",
    "volume_field",
    "volume_ratio_bound",
    "export_indicatrix_csv",
    "export_volume_field_csv",
]

PLOT_ANGLES = 64
QUADRATURE_ANGLES = 256

_CONVEX_SLACK = 1e-8  # relative to the product of the two edge lengths


def _unit_directions(K: int) -> np.ndarray:
    """K unit vectors at angles 2*pi*k/K. For even K the second half is the
    exact negation of the first, so evenness of a norm shows up as exact
    equality of opposite radii."""
    half = K // 2
    angles = 2.0 * math.pi * np.arange(half if K % 2 == 0 else K) / K
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    if K % 2 == 0:
        dirs = np.vstack([dirs, -dirs])
    return dirs


def _polygon_area(radii: np.ndarray) -> np.ndarray:
    """Area of the polygon with the given radii at equal angle steps, over
    the last axis."""
    step = 2.0 * math.pi / radii.shape[-1]
    return 0.5 * math.sin(step) * np.sum(radii * np.roll(radii, -1, axis=-1), axis=-1)


@dataclass(frozen=True, eq=False)
class Indicatrix:
    """Polar sampling of a unit ball boundary at one latent point."""

    angles: np.ndarray
    radii: np.ndarray
    metric_kind: str

    def is_convex(self) -> bool:
        """Cross-product sign test on the sampled polygon (CCW traversal).

        An infinite radius (alpha_sigma where Sigma e(theta) = 0) makes the
        unit ball the unbounded ball of a seminorm, which is convex; no
        polygon is formed then."""
        if not np.all(np.isfinite(self.radii)):
            return True
        pts = self.radii[:, None] * _unit_directions(len(self.radii))
        e = np.roll(pts, -1, axis=0) - pts
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        norms = np.linalg.norm(e, axis=1)
        scale = norms * np.roll(norms, -1)
        return bool(np.all(cross >= -_CONVEX_SLACK * np.maximum(scale, 1e-300)))

    @property
    def area(self) -> float:
        return float(_polygon_area(self.radii))


@dataclass(frozen=True, eq=False)
class VolumeField:
    """Per-grid-point volumes of the three metrics and their relative gap."""

    grid_points: np.ndarray
    v_riemann: np.ndarray
    v_finsler: np.ndarray
    v_alpha_sigma: np.ndarray
    ratio: np.ndarray
    ratio_bound: np.ndarray


def _posterior_arrays(p) -> tuple[np.ndarray, np.ndarray, int]:
    """One point's posterior as a batch of one: means, covs and D."""
    if isinstance(p, MetricPoint):
        p = p.jac
    if not isinstance(p, JacobianPosterior):
        raise TypeError("expected a MetricPoint or JacobianPosterior")
    return p.mean[None], p.cov[None], p.dim_data


def _evaluated_directions(K: int) -> np.ndarray:
    """The directions at which the norms of K angles are evaluated: for even
    K the first K/2 of `_unit_directions(K)`, since the norms are even and
    the other K/2 directions are their exact negations; for odd K all K."""
    dirs = _unit_directions(K)
    return dirs if K % 2 else dirs[: K // 2]


def _check_angles(q: int, K: int) -> None:
    if q != 2:
        raise ValueError("indicatrices are only defined for 2-d latent spaces")
    if K < 16:
        raise ValueError("need at least 16 angles")


def _evaluated_norms_sq(means, covs, dim_data, K: int, metric_kind: str) -> np.ndarray:
    """`norms_sq` of n points at `_evaluated_directions(K)`, once q = 2, K and
    the metric kind are checked."""
    _check_angles(means.shape[-1], K)
    _check_kind(metric_kind, METRIC_KINDS)
    return norms_sq(means, covs, dim_data, _evaluated_directions(K), metric_kind)


def _radii_from_norms_sq(values_sq: np.ndarray, K: int, metric_kind: str) -> np.ndarray:
    """Indicatrix radii 1/norm(e(theta)) at K angles, (n, K), from the
    squared norms (n, len(`_evaluated_directions(K)`)) of a metric kind.

    A non-finite norm, or a zero riemann or finsler norm, is a degenerate
    metric and raises. alpha_sigma is 0 wherever Sigma e(theta) = 0, as
    everywhere on a deterministic field; its radius there is inf, and an
    unbounded unit ball has volume 0."""
    values = np.sqrt(values_sq if K % 2 else np.tile(values_sq, 2))
    zero_ok = metric_kind == "alpha_sigma"
    if not (np.all(np.isfinite(values)) and (zero_ok or np.all(values > 0.0))):
        raise ValueError("metric is degenerate along a sampled direction")
    with np.errstate(divide="ignore"):
        return 1.0 / values


def _volumes_from_norms_sq(values_sq: np.ndarray, K: int, metric_kind: str) -> np.ndarray:
    """Unit-ball-ratio volumes pi / area of n indicatrix polygons, (n,), from
    squared norms as `_radii_from_norms_sq` takes them."""
    return math.pi / _polygon_area(_radii_from_norms_sq(values_sq, K, metric_kind))


def _radii(means, covs, dim_data: int, K: int, metric_kind: str) -> np.ndarray:
    """Indicatrix radii at K angles for n points, (n, K); see
    `_radii_from_norms_sq`."""
    values_sq = _evaluated_norms_sq(means, covs, dim_data, K, metric_kind)
    return _radii_from_norms_sq(values_sq, K, metric_kind)


def _ratio_bounds(means, covs, dim_data: int, K: int) -> np.ndarray:
    """Volume-ratio bound of each point; see `volume_ratio_bound`."""
    _check_angles(means.shape[-1], K)
    w = norms_sq(means, covs, dim_data, _evaluated_directions(K), "omega")
    return _ratio_bounds_from_omega(w, dim_data)


def _ratio_bounds_from_omega(w: np.ndarray, dim_data: int) -> np.ndarray:
    """`_ratio_bounds` from omega at the evaluated directions, (n, k)."""
    m = np.max(gap_bound(dim_data, w), axis=1)
    return 1.0 - (1.0 - m) ** 2


def indicatrix(p, K: int = PLOT_ANGLES, metric_kind: str = "finsler") -> Indicatrix:
    """Unit-ball boundary radii r(theta) = 1/norm(e(theta)) at K angles."""
    return Indicatrix(
        angles=2.0 * math.pi * np.arange(K) / K,
        radii=_radii(*_posterior_arrays(p), K, metric_kind)[0],
        metric_kind=metric_kind,
    )


def bh_volume(p, K: int = QUADRATURE_ANGLES, metric_kind: str = "finsler") -> float:
    """Unit-ball-ratio volume pi / area of the indicatrix polygon."""
    return float(bh_volumes(*_posterior_arrays(p), K, metric_kind)[0])


def bh_volumes(
    means, covs, dim_data, K: int = QUADRATURE_ANGLES, metric_kind: str = "finsler"
) -> np.ndarray:
    """`bh_volume` of n points at once, from their Jacobian posteriors:
    means (n, D, q) and covs (n, q, q), with one dim_data for all points or
    an (n,) integer array of them, as `norms_sq` takes it; returns shape
    (n,)."""
    values_sq = _evaluated_norms_sq(means, covs, dim_data, K, metric_kind)
    return _volumes_from_norms_sq(values_sq, K, metric_kind)


def volume_ratio_bound(p, K: int = QUADRATURE_ANGLES) -> float:
    """Upper bound on the volume ratio (v_r - v_f) / v_r for the K-angle
    quadrature volumes.

    With M the largest per-direction norm gap bound over the sampled
    directions, every sampled radius satisfies r_f <= r_r / (1 - M), so the
    finsler polygon area is at most area_r / (1 - M)**2 and the volume ratio
    is at most 1 - (1 - M)**2.
    """
    return float(_ratio_bounds(*_posterior_arrays(p), K)[0])


def volume_field(m, grid: int = 32, K: int = QUADRATURE_ANGLES) -> VolumeField:
    """All three volumes and the relative gap over a latent lattice.

    The lattice is the field's `latent_lattice`, over the latent box plus a
    10% margin on each side. All volumes use the same polar quadrature, so
    the shared discretization bias cancels in the ratio and the pointwise
    orderings are exact. sigma and the signal of all grid points and
    angles are formed once (one pass per block of `norms_sq`'s size), and
    each volume kind and the ratio bound's omega are taken from them.
    """
    field = as_field(m)
    pts = latent_lattice(field, grid)
    _check_angles(field.latent_dim, K)
    means, covs = field.jacobian_batch(pts)
    d = field.data_dim
    kinds = ("riemann", "finsler", "alpha_sigma")
    *values_sq, w = _norms_sq_of_kinds(means, covs, d, _evaluated_directions(K), (*kinds, "omega"))
    v_r, v_f, v_a = (_volumes_from_norms_sq(sq, K, kind) for sq, kind in zip(values_sq, kinds))
    return VolumeField(
        grid_points=pts,
        v_riemann=v_r,
        v_finsler=v_f,
        v_alpha_sigma=v_a,
        ratio=(v_r - v_f) / v_r,
        ratio_bound=_ratio_bounds_from_omega(w, d),
    )


# ---------------------------------------------------------------------------
# export


def _log10_floor(x: np.ndarray, floor: float = 1e-16) -> np.ndarray:
    return np.log10(np.maximum(x, floor))


def export_volume_field_csv(path: str, vf: VolumeField) -> None:
    # the grid point, the value columns, then their log10_ twins in order
    names = ("v_riemann", "v_finsler", "v_alpha_sigma", "ratio")
    values = [getattr(vf, name) for name in names]
    write_csv(
        path,
        zip(*vf.grid_points.T, *values, *map(_log10_floor, values)),
        header=["z1", "z2", *names, *(f"log10_{name}" for name in names)],
    )


def export_indicatrix_csv(path: str, indicatrices: list[Indicatrix]) -> None:
    """One CSV row per angle with a radius column per metric kind."""
    if not indicatrices:
        raise ValueError("need at least one indicatrix")
    if len(set(len(ind.angles) for ind in indicatrices)) != 1:
        raise ValueError("indicatrices must share the angle grid")
    header = ["theta"] + [f"r_{ind.metric_kind}" for ind in indicatrices]
    cols = [indicatrices[0].angles] + [ind.radii for ind in indicatrices]
    write_csv(path, zip(*cols), header=header)
