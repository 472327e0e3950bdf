"""Metric fields: anything that yields a Jacobian posterior per latent point.

A `JacobianPosterior` is the law of the Jacobian at one point: a D x q mean
and a q x q covariance shared by the D rows, clamped PSD (`_clamp_psd_batch`).
The norms depend on it alone, however it was produced; `_query_points` checks
every field's points. `GpField` imports gp only when its methods are called.

A field defines `latent_dim`, `data_dim`, `jacobian_batch(Z)`,
`jacobian_batch_dz(Z)` and `latent_box()`. A field that maps latents to an
ambient space also defines `decode_batch(Z)`, the ambient points (n, D);
geodesic curve files and ambient lengths use it.

- `jacobian_batch(Z)` returns the posteriors at n points: means (n, D, q)
  and covs (n, q, q).
- `jacobian_batch_dz(Z)` returns the same two arrays plus their derivatives
  in z from one pass: dmeans (n, D, q, q) and dcovs (n, q, q, q), the last
  axis being the coordinate of z differentiated; dcovs differentiates the
  covariance before any PSD clamp. Geodesic energy gradients take both the
  velocity and the midpoint part from it.
- `latent_box()` returns the (lo, hi) corners of the latent region the
  field describes. `padded_box` adds 10% of its span on each side; lattices,
  grid-initialization endpoints and the out-of-box curve warning use it.

Geodesics, indicatrices and volumes are computed against this interface, so
fitted models and analytic test surfaces are interchangeable. A
`ConstantField` has one posterior everywhere, so its z-derivatives are
zero; `EuclideanField` is the constant field of the identity mean and zero
covariance, with the identity decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .gp import GpModel

__all__ = [
    "JacobianPosterior",
    "GpField",
    "EuclideanField",
    "ConstantField",
    "SphereField",
    "SyntheticField",
    "as_field",
    "latent_lattice",
    "padded_box",
    "sphere_chart",
]


@dataclass(frozen=True, eq=False)
class JacobianPosterior:
    """Posterior law of the Jacobian at one latent point.

    mean: D x q matrix of derivative predictive means
    cov: q x q derivative covariance, shared by all D output rows
         (symmetrized, negative eigenvalues clamped to zero)
    dim_data: D
    """

    mean: np.ndarray
    cov: np.ndarray
    dim_data: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 2:
            raise ValueError("mean must be a D x q matrix")
        q = mean.shape[1]
        if cov.shape != (q, q):
            raise ValueError("cov must be q x q")
        if self.dim_data != mean.shape[0]:
            raise ValueError("dim_data must equal the row count of mean")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _clamp_psd_batch(cov[None])[0])

    @property
    def dim_latent(self) -> int:
        return self.mean.shape[1]

    @classmethod
    def _of_batch_row(cls, mean: np.ndarray, cov: np.ndarray) -> JacobianPosterior:
        """The posterior of one row of a field's `jacobian_batch`, whose
        covariance is taken as it is: the batch is clamped already, and
        `_clamp_psd_batch` is not idempotent where its eigendecomposition
        acted, so a second clamp could move the row by ulps."""
        post = object.__new__(cls)
        post.__dict__.update(mean=mean, cov=cov, dim_data=mean.shape[0])
        return post


# A symmetric 2 x 2 matrix counts as positive definite when its smaller
# eigenvalue, in closed form, exceeds this share of its larger one. The
# closed form and eigh (backward stable) both err by a few ulps of the
# larger eigenvalue, so above 1e-12 of it (about 4500 ulps) eigh could not
# find a negative eigenvalue.
_PD_MARGIN = 1e-12


def _certified_pd(sym: np.ndarray) -> bool:
    """True when every matrix of a batch of symmetric 2 x 2 matrices is
    positive definite by the margin `_PD_MARGIN` (False on NaN or inf)."""
    mid = 0.5 * (sym[..., 0, 0] + sym[..., 1, 1])
    radius = np.hypot(0.5 * (sym[..., 0, 0] - sym[..., 1, 1]), sym[..., 0, 1])
    return bool(np.all(mid - radius > _PD_MARGIN * (mid + radius)))


def _clamp_psd_batch(covs: np.ndarray) -> np.ndarray:
    """Symmetrize a batch of q x q covariances and clamp their negative
    eigenvalues to zero. When no eigenvalue of the batch is negative the
    symmetrized batch is returned as is; for q = 2 a batch certified
    positive definite in closed form skips the eigendecomposition."""
    sym = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    if sym.shape[-1] == 2 and _certified_pd(sym):
        return sym
    vals, vecs = np.linalg.eigh(sym)
    if np.all(vals[..., 0] >= 0.0):
        return sym
    vals = np.clip(vals, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", vecs, vals, vecs)


def _query_points(Z: np.ndarray, latent_dim: int) -> np.ndarray:
    """Every field's points as an n x latent_dim float array, checked finite
    once: the GP posteriors solve against the model's factor, finite by
    construction, with no per-solve scan of it."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.ndim != 2 or Z.shape[1] != latent_dim:
        raise ValueError(f"points of shape {Z.shape} do not fit latent dimension {latent_dim}")
    if not np.all(np.isfinite(Z)):
        raise ValueError("latent points must be finite")
    return Z


def padded_box(field) -> tuple[np.ndarray, np.ndarray]:
    """The field's `latent_box()` widened by 10% of its span on every side."""
    lo, hi = field.latent_box()
    span = hi - lo
    pad = 0.1 * span
    return lo - pad, hi + pad


def latent_lattice(field, grid: int) -> np.ndarray:
    """grid x grid points evenly spanning the padded box of a 2-d field,
    x-major: row ix * grid + iy is (xs[ix], ys[iy]). Raises a ValueError
    for a field of another latent dimension, or for grid < 2."""
    if field.latent_dim != 2:
        raise ValueError("latent lattices are only defined for 2-d latent spaces")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    lo, hi = padded_box(field)
    xs, ys = (np.linspace(lo[j], hi[j], grid) for j in (0, 1))
    return np.column_stack([np.repeat(xs, grid), np.tile(ys, grid)])


class _Field:
    """Shared by the fields below: `jacobian_batch(Z)`, the posteriors of
    `jacobian_batch_dz(Z)` (GpField and ConstantField define their own),
    `jacobian_posterior(z)`, one point's posterior, bit for bit the row of
    `jacobian_batch`, and the box [-_box, _box]^q."""

    def jacobian_batch(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        means, covs, _, _ = self.jacobian_batch_dz(Z)
        return means, covs

    def jacobian_posterior(self, z: np.ndarray) -> JacobianPosterior:
        means, covs = self.jacobian_batch(z)
        return JacobianPosterior._of_batch_row(means[0], covs[0])

    def latent_box(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.latent_dim
        return -self._box * np.ones(q), self._box * np.ones(q)


@dataclass(frozen=True, eq=False)
class GpField(_Field):
    """Field induced by a fitted model's Jacobian posterior."""

    model: GpModel

    @property
    def latent_dim(self) -> int:
        return self.model.dim_latent

    @property
    def data_dim(self) -> int:
        return self.model.dim_data

    def jacobian_batch(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from .gp import _jacobian_pass
        return _jacobian_pass(self.model, Z, dz=False)

    def jacobian_batch_dz(self, Z: np.ndarray):
        from .gp import _jacobian_pass
        return _jacobian_pass(self.model, Z, dz=True)

    def latent_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.model.latent_bounds

    def decode_batch(self, Z: np.ndarray) -> np.ndarray:
        return self.mean_var_batch(Z)[0]

    def mean_var_batch(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means (n, D) and shared per-output variances (n,) at
        the n points Z, from one pass."""
        from .gp import _posterior_mean_var_batch
        return _posterior_mean_var_batch(self.model, Z)


class ConstantField(_Field):
    """The same Jacobian posterior at every latent point."""

    def __init__(self, jac: JacobianPosterior, box: float = 2.0):
        self.jac = jac
        self.latent_dim = jac.dim_latent
        self.data_dim = jac.dim_data
        self._box = float(box)

    def jacobian_batch(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = _query_points(Z, self.latent_dim).shape[0]
        return (
            np.broadcast_to(self.jac.mean, (n, *self.jac.mean.shape)).copy(),
            np.broadcast_to(self.jac.cov, (n, *self.jac.cov.shape)).copy(),
        )

    def jacobian_batch_dz(self, Z: np.ndarray):
        means, covs = self.jacobian_batch(Z)
        n, d, q = means.shape
        return means, covs, np.zeros((n, d, q, q)), np.zeros((n, q, q, q))


class EuclideanField(ConstantField):
    """Identity Jacobian, zero uncertainty: both norms are Euclidean."""

    def __init__(self, dim: int = 2, box: float = 2.0):
        super().__init__(JacobianPosterior(np.eye(dim), np.zeros((dim, dim)), dim), box)

    def decode_batch(self, Z: np.ndarray) -> np.ndarray:
        return _query_points(Z, self.latent_dim).copy()


def sphere_chart(z: np.ndarray) -> np.ndarray:
    """(azimuth, polar) -> unit vector (cos t sin p, sin t sin p, cos p),
    over the last axis of z."""
    z = np.asarray(z, dtype=float)
    t, p = z[..., 0], z[..., 1]
    return np.stack([np.cos(t) * np.sin(p), np.sin(t) * np.sin(p), np.cos(p)], axis=-1)


class SphereField(_Field):
    """Deterministic unit sphere in its standard angular chart.

    The exact chart Jacobian gives the round metric diag(sin^2 p, 1), so
    geodesic lengths can be checked against great-circle arcs. The latent
    box keeps a margin away from the polar coordinate singularities.
    """

    latent_dim = 2
    data_dim = 3

    def __init__(self, polar_margin: float = 0.3):
        self._margin = float(polar_margin)

    def jacobian_batch_dz(self, Z: np.ndarray):
        Z = _query_points(Z, self.latent_dim)
        n = Z.shape[0]
        st, ct = np.sin(Z[:, 0]), np.cos(Z[:, 0])
        sp, cp = np.sin(Z[:, 1]), np.cos(Z[:, 1])
        means = np.zeros((n, 3, 2))
        means[:, 0] = np.column_stack([-st * sp, ct * cp])
        means[:, 1] = np.column_stack([ct * sp, st * cp])
        means[:, 2, 1] = -sp
        dmeans = np.zeros((n, 3, 2, 2))  # last axis: d/d azimuth, d/d polar
        dmeans[:, 0, 0] = np.column_stack([-ct * sp, -st * cp])
        dmeans[:, 0, 1] = np.column_stack([-st * cp, -ct * sp])
        dmeans[:, 1, 0] = np.column_stack([-st * sp, ct * cp])
        dmeans[:, 1, 1] = np.column_stack([ct * cp, -st * sp])
        dmeans[:, 2, 1, 1] = -cp
        return means, np.zeros((n, 2, 2)), dmeans, np.zeros((n, 2, 2, 2))

    def latent_box(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([-math.pi, self._margin]),
            np.array([math.pi, math.pi - self._margin]),
        )

    def decode_batch(self, Z: np.ndarray) -> np.ndarray:
        return sphere_chart(_query_points(Z, self.latent_dim))


class SyntheticField(_Field):
    """Smooth trigonometric field with genuinely position-dependent
    uncertainty, for exercising geodesics and volumes without a fit."""

    def __init__(
        self,
        seed: int = 0,
        latent_dim: int = 2,
        data_dim: int = 8,
        noise_floor: float = 0.1,
        box: float = 2.0,
    ):
        rng = np.random.default_rng(seed)
        self.latent_dim = latent_dim
        self.data_dim = data_dim
        self.noise_floor = float(noise_floor)
        self._box = float(box)
        self._freq_mean = rng.normal(0.0, 1.0, (data_dim, latent_dim, latent_dim))
        self._phase_mean = rng.uniform(0.0, 2.0 * np.pi, (data_dim, latent_dim))
        self._amp_mean = rng.normal(0.0, 1.0, (data_dim, latent_dim)) / math.sqrt(
            latent_dim
        )
        self._freq_cov = rng.normal(0.0, 1.0, (latent_dim, latent_dim, latent_dim))
        self._phase_cov = rng.uniform(0.0, 2.0 * np.pi, (latent_dim, latent_dim))

    def jacobian_batch_dz(self, Z: np.ndarray):
        # mean = A sin(F z + P) and cov = R R^T / q + floor I with
        # R = sin(G z + Q), entry by entry; the stacked matmul with z as an
        # (n, 1, q, 1) column computes F z exactly as F @ z does per point
        Z = _query_points(Z, self.latent_dim)[:, None, :, None]
        q = self.latent_dim
        arg = (self._freq_mean @ Z)[..., 0] + self._phase_mean  # (n, D, q)
        means = self._amp_mean * np.sin(arg)
        dmeans = (self._amp_mean * np.cos(arg))[..., None] * self._freq_mean
        arg = (self._freq_cov @ Z)[..., 0] + self._phase_cov  # (n, q, q)
        root = np.sin(arg)
        droot = np.cos(arg)[..., None] * self._freq_cov  # (n, q, q, q)
        covs = root @ np.swapaxes(root, -1, -2) / q + self.noise_floor * np.eye(q)
        cross = np.einsum("nakb,nck->nacb", droot, root)
        return means, covs, dmeans, (cross + cross.transpose(0, 2, 1, 3)) / q


def as_field(obj):
    """Pass fields through unchanged; wrap a fitted model as a field."""
    if hasattr(obj, "jacobian_batch"):
        return obj
    from .gp import GpModel
    if isinstance(obj, GpModel):
        return GpField(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a metric field")
