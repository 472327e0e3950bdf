"""Sampling and moments for random Jacobians with Gaussian rows.

The product J^T J of a D x q matrix with independent Gaussian rows (shared
row covariance Sigma, mean E[J]) follows a non-central Wishart law; the
quadratic form v^T J^T J v follows its one-dimensional marginal. This module
is the ground-truth Monte-Carlo oracle the closed-form norms are tested
against: everything here relies only on sampling Gaussians, never on the
closed forms under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WishartSpec",
    "ScalarWishart",
    "batch_rng",
    "sample_jacobian",
    "wishart_scalar_moments",
    "expected_norm_mc",
]

# degenerate row covariances are nudged, not rejected: GP posteriors pinned
# at training points are nearly deterministic and must not crash the pipeline
_DEGENERATE_JITTER = 1e-12

# samples drawn per generator in expected_norm_mc
_MC_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class WishartSpec:
    """Law of a random D x q Jacobian with independent Gaussian rows.

    dof: number of rows D (the data-space dimension)
    scale: q x q row covariance, shared by all rows
    mean_jacobian: D x q mean matrix
    """

    dof: int
    scale: np.ndarray
    mean_jacobian: np.ndarray

    def __post_init__(self):
        scale = np.asarray(self.scale, dtype=float)
        mean = np.asarray(self.mean_jacobian, dtype=float)
        if mean.ndim != 2:
            raise ValueError("mean_jacobian must be a D x q matrix")
        if scale.shape != (mean.shape[1], mean.shape[1]):
            raise ValueError("scale must be q x q for a D x q mean")
        if not np.allclose(scale, scale.T, atol=1e-10):
            raise ValueError("scale must be symmetric")
        if self.dof != mean.shape[0]:
            raise ValueError("dof must equal the row count of mean_jacobian")
        if self.dof < 1:
            raise ValueError("dof must be >= 1")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "mean_jacobian", mean)

    @property
    def dim_latent(self) -> int:
        return self.mean_jacobian.shape[1]


@dataclass(frozen=True)
class ScalarWishart:
    """One-dimensional marginal law of v^T J^T J v.

    sigma is v^T Sigma v and omega the non-centrality ratio
    (v^T Sigma v)^{-1} v^T E[J]^T E[J] v.
    """

    dof: int
    sigma: float
    omega: float

    def __post_init__(self):
        if self.dof < 1:
            raise ValueError("dof must be >= 1")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.omega < 0.0:
            raise ValueError("omega must be nonnegative")


def batch_rng(seed: int, batch: int) -> np.random.Generator:
    """Generator for one batch of a seeded run.

    Splitting rule: the pair (seed, batch index) is hashed through
    SeedSequence, so batches are mutually independent and the whole
    stream is reproducible from the run seed alone.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, batch]))


def _scale_cholesky(scale: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(scale)
    except np.linalg.LinAlgError:
        pass
    jittered = scale + _DEGENERATE_JITTER * np.eye(scale.shape[0])
    try:
        return np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "row covariance is not positive semidefinite, even after jitter"
        ) from None


def sample_jacobian(spec: WishartSpec, rng_seed: int) -> np.ndarray:
    """Draw one D x q Jacobian: row i ~ N(E[J][i], Sigma), rows independent."""
    rng = np.random.default_rng(rng_seed)
    chol = _scale_cholesky(spec.scale)
    noise = rng.standard_normal(spec.mean_jacobian.shape)
    return spec.mean_jacobian + noise @ chol.T


def wishart_scalar_moments(s: ScalarWishart) -> tuple[float, float]:
    """First two raw moments of the scalar law: E[z] and E[z^2]."""
    d_o = s.dof + s.omega
    mean = s.sigma * d_o
    second = s.sigma**2 * (2.0 * s.omega + 2.0 * d_o + d_o**2)
    return mean, second


def expected_norm_mc(
    spec: WishartSpec, v: np.ndarray, n_samples: int, rng_seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of E[sqrt(v^T J^T J v)] with its standard error.

    Because the rows of J are independent with shared covariance, the
    projected vector Jv is exactly N(E[J]v, s^2 I_D) with s^2 = v^T Sigma v.
    By rotation invariance its squared length has the law of
    (|E[J]v| + s Z)^2 + s^2 chi^2_{D-1}, with Z standard normal: two draws
    per sample, whatever D. This is still pure sampling, not the closed
    form under test. The full matrix sampler is cross-checked against it in
    the tests.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.dim_latent,):
        raise ValueError(f"v must be a {spec.dim_latent}-vector")
    if not np.any(v):
        raise ValueError("v must be nonzero")
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a standard error")

    mu_norm = float(np.linalg.norm(spec.mean_jacobian @ v))
    sigma = max(float(v @ spec.scale @ v), 0.0)
    std = math.sqrt(sigma)

    total = 0.0
    total_sq = 0.0
    done = 0
    batch = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        rng = batch_rng(rng_seed, batch)
        along = mu_norm + std * rng.standard_normal(m)
        sq = along * along
        if spec.dof > 1:
            sq += sigma * rng.chisquare(spec.dof - 1, m)
        total += float(np.sqrt(sq).sum())
        total_sq += float(sq.sum())
        done += m
        batch += 1

    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    return mean, math.sqrt(var / n_samples)
