"""Metric fields: anything that yields a Jacobian posterior per latent point.

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

import numpy as np

from .gp import (
    GpModel,
    JacobianPosterior,
    _jacobian_pass,
    _posterior_mean_var_batch,
    _query_points,
)

__all__ = [
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
    """Shared by the fields below: `jacobian_posterior(z)`, one point's
    posterior from `jacobian_batch`, and the box [-_box, _box]^q."""

    def jacobian_posterior(self, z: np.ndarray) -> JacobianPosterior:
        means, covs = self.jacobian_batch(z)
        return JacobianPosterior(mean=means[0], cov=covs[0], dim_data=self.data_dim)

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
        return _jacobian_pass(self.model, Z, dz=False)

    def jacobian_batch_dz(self, Z: np.ndarray):
        return _jacobian_pass(self.model, Z, dz=True)

    def latent_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.model.latent_bounds

    def decode_batch(self, Z: np.ndarray) -> np.ndarray:
        means, _ = _posterior_mean_var_batch(self.model, Z)
        return means


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

    def jacobian_batch(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        means, covs, _, _ = self.jacobian_batch_dz(Z)
        return means, covs

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

    def jacobian_batch(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        means, covs, _, _ = self.jacobian_batch_dz(Z)
        return means, covs

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
    """Wrap a fitted model as a field; pass fields through unchanged."""
    if isinstance(obj, GpModel):
        return GpField(obj)
    if hasattr(obj, "jacobian_batch"):
        return obj
    raise TypeError(f"cannot interpret {type(obj).__name__} as a metric field")
