"""Indicatrices and volume measures on 2-D latent spaces.

The indicatrix at a point is the unit ball boundary {v : norm(v) = 1}; by
1-homogeneity its polar radius is exactly 1/norm(e(theta)), so no contour
extraction is needed. Volumes follow the unit-ball-ratio convention
pi / area(indicatrix), evaluated with polygonal polar quadrature; for the
expected-norm (Riemannian) metric this reproduces sqrt(det E[G]).

Radii come from `metric.norms_sq`, which evaluates all K angles of all
points in one call: one point for `indicatrix`, `bh_volume` and
`volume_ratio_bound`, every grid point for `volume_field`. The per-point
functions take a `MetricPoint` or a `JacobianPosterior`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import write_csv
from .fields import as_field, latent_lattice
from .gp import JacobianPosterior
from .metric import MetricPoint, gap_bound, norms_sq

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

_METRIC_KINDS = ("riemann", "finsler", "alpha_sigma", "euclid")

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

    center: np.ndarray
    angles: np.ndarray
    radii: np.ndarray
    metric_kind: str

    def is_convex(self) -> bool:
        """Cross-product sign test on the sampled polygon (CCW traversal)."""
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


def _radii(means, covs, dim_data: int, K: int, metric_kind: str) -> np.ndarray:
    """Indicatrix radii 1/norm(e(theta)) at K angles for n points, (n, K)."""
    if means.shape[-1] != 2:
        raise ValueError("indicatrices are only defined for 2-d latent spaces")
    if K < 16:
        raise ValueError("need at least 16 angles")
    if metric_kind not in _METRIC_KINDS:
        raise ValueError(f"unknown metric kind {metric_kind!r}")
    values = np.sqrt(norms_sq(means, covs, dim_data, _unit_directions(K), metric_kind))
    if not (np.all(np.isfinite(values)) and np.all(values > 0.0)):
        raise ValueError("metric is degenerate along a sampled direction")
    return 1.0 / values


def _ratio_bounds(means, covs, dim_data: int, K: int) -> np.ndarray:
    """Volume-ratio bound of each point; see `volume_ratio_bound`."""
    w = norms_sq(means, covs, dim_data, _unit_directions(K), "omega")
    m = np.max(gap_bound(dim_data, w), axis=1)
    return 1.0 - (1.0 - m) ** 2


def indicatrix(p, K: int = PLOT_ANGLES, metric_kind: str = "finsler") -> Indicatrix:
    """Unit-ball boundary radii r(theta) = 1/norm(e(theta)) at K angles."""
    return Indicatrix(
        center=np.zeros(2),
        angles=2.0 * math.pi * np.arange(K) / K,
        radii=_radii(*_posterior_arrays(p), K, metric_kind)[0],
        metric_kind=metric_kind,
    )


def bh_volume(p, K: int = QUADRATURE_ANGLES, metric_kind: str = "finsler") -> float:
    """Unit-ball-ratio volume pi / area of the indicatrix polygon."""
    return float(bh_volumes(*_posterior_arrays(p), K, metric_kind)[0])


def bh_volumes(
    means, covs, dim_data: int, K: int = QUADRATURE_ANGLES, metric_kind: str = "finsler"
) -> np.ndarray:
    """`bh_volume` of n points at once, from their Jacobian posteriors:
    means (n, D, q) and covs (n, q, q); returns shape (n,)."""
    return math.pi / _polygon_area(_radii(means, covs, dim_data, K, metric_kind))


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
    orderings are exact. Each quantity is one batched evaluation over all
    grid points and angles.
    """
    field = as_field(m)
    if field.latent_dim != 2:
        raise ValueError("volume fields are only defined for 2-d latent spaces")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    pts = latent_lattice(field, grid)
    means, covs = field.jacobian_batch(pts)
    d = field.data_dim
    v_r = bh_volumes(means, covs, d, K, "riemann")
    v_f = bh_volumes(means, covs, d, K, "finsler")
    return VolumeField(
        grid_points=pts,
        v_riemann=v_r,
        v_finsler=v_f,
        v_alpha_sigma=bh_volumes(means, covs, d, K, "alpha_sigma"),
        ratio=(v_r - v_f) / v_r,
        ratio_bound=_ratio_bounds(means, covs, d, K),
    )


# ---------------------------------------------------------------------------
# export


def _log10_floor(x: np.ndarray, floor: float = 1e-16) -> np.ndarray:
    return np.log10(np.maximum(x, floor))


def export_volume_field_csv(path: str, vf: VolumeField) -> None:
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


def export_indicatrix_csv(path: str, indicatrices: list[Indicatrix]) -> None:
    """One CSV row per angle with a radius column per metric kind."""
    if not indicatrices:
        raise ValueError("need at least one indicatrix")
    if len(set(len(ind.angles) for ind in indicatrices)) != 1:
        raise ValueError("indicatrices must share the angle grid")
    header = ["theta"] + [f"r_{ind.metric_kind}" for ind in indicatrices]
    cols = [indicatrices[0].angles] + [ind.radii for ind in indicatrices]
    write_csv(path, zip(*cols), header=header)
