"""The three norms induced by a stochastic Jacobian.

At a latent point the Jacobian J is random with Gaussian rows, so the
pullback inner product v^T J^T J v is a scalar random variable. This module
provides the sampled stochastic norm sqrt(v^T G v), the expected-Riemannian
norm sqrt(v^T E[G] v), and the Finsler norm E[sqrt(v^T G v)] in closed form,
together with the coefficients (alpha, omega) and the bounds that relate
them.

Every norm depends on D and two quadratic forms only: sigma = v^T Sigma v
and signal = ||E[J] v||^2. Where signal/sigma is not a finite number (sigma
= 0, a ratio past the largest double, or both forms 0) each norm is its
deterministic limit sqrt(signal). `_noncentrality` alone decides this, by
no threshold on the length of v, so every norm is even and 1-homogeneous
at every scale. The scalar functions take one `MetricPoint` and one vector.
`norms_sq` evaluates a norm kind for many points and directions at once,
on arrays of Jacobian posteriors with one data dimension D for all points
or one per point. Callers that need several kinds of the same directions
form sigma and the signal once (`_sigma_and_signal_batch`) and apply each
kind's formula to them (`_norms_from_forms`). `_norms_sq_of_kinds` does
both blockwise, as `norms_sq` does for one kind; `measure.volume_field`,
the truncation sweep and the volume checks of the violation sweep call it.
Geodesic segment norms and the sweep's curve and spec checks form their
own. Each kind's derivatives in the two forms live in `_norm_partials`,
whence the geodesic gradient. `gap_bound` bounds the relative gap (Wishart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import JacobianPosterior
from .randmat import ScalarWishart, WishartSpec, sample_jacobian, wishart_scalar_moments
from .specfun import kummer_1f1, kummer_1f1_array, log_gamma_ratio

__all__ = [
    "MetricPoint",
    "BoundReport",
    "NORM_KINDS",
    "norms_sq",
    "gap_bound",
    "riemannian_norm",
    "finsler_norm",
    "alpha_sigma_norm",
    "stochastic_norm_sample",
    "alpha_coefficient",
    "omega",
    "bound_report",
    "relative_gap",
    "fundamental_form",
]

BOUND_SLACK = 1e-9

METRIC_KINDS = ("riemann", "finsler", "alpha_sigma", "euclid")
NORM_KINDS = (*METRIC_KINDS, "omega")

# points per norms_sq block times directions per point
_BLOCK_VALUES = 16384


@dataclass(frozen=True, eq=False)
class MetricPoint:
    """Jacobian posterior at one latent point, the input to every norm."""

    jac: JacobianPosterior

    @property
    def dim_data(self) -> int:
        return self.jac.dim_data

    @property
    def dim_latent(self) -> int:
        return self.jac.dim_latent

    @property
    def expected_metric_tensor(self) -> np.ndarray:
        """E[J^T J] = E[J]^T E[J] + D Sigma, symmetric PSD."""
        j = self.jac
        return j.mean.T @ j.mean + j.dim_data * j.cov


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One tangent vector's norms under the sandwich inequality."""

    v: np.ndarray
    lower: float
    finsler: float
    upper: float
    alpha: float
    omega: float

    @property
    def ok(self) -> bool:
        return (
            self.lower <= self.finsler + BOUND_SLACK
            and self.finsler <= self.upper + BOUND_SLACK
        )


def _sigma_and_signal(mean: np.ndarray, cov: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    # sigma = v^T Sigma v, signal = ||E[J] v||^2 of one point; sigma clamped at zero
    sigma = float(v @ cov @ v)
    jv = mean @ v
    return max(sigma, 0.0), float(jv @ jv)


def riemannian_norm(p: MetricPoint, v: np.ndarray) -> float:
    """Norm under the expected metric tensor: sqrt(v^T E[G] v)."""
    v = np.asarray(v, dtype=float)
    sigma, signal = _sigma_and_signal(p.jac.mean, p.jac.cov, v)
    return math.sqrt(signal + p.dim_data * sigma)


def finsler_norm(p: MetricPoint, v: np.ndarray) -> float:
    """Expected norm E[sqrt(v^T G v)] in closed form.

    The quadratic form is a scalar non-central Wishart variable, so its
    square root has the mean

        sqrt(2 sigma) * Gamma(D/2 + 1/2)/Gamma(D/2) * 1F1(-1/2, D/2, -omega/2)

    with sigma = v^T Sigma v and omega = signal/sigma. Where omega is not
    a finite number (`_noncentrality`) the deterministic limit ||E[J] v||
    is returned.
    """
    v = np.asarray(v, dtype=float)
    sigma, signal = _sigma_and_signal(p.jac.mean, p.jac.cov, v)
    w, live = _noncentrality(sigma, signal)
    if not live:
        return math.sqrt(signal)
    b = 0.5 * p.dim_data
    ratio = math.exp(log_gamma_ratio(b + 0.5, b))
    return math.sqrt(2.0 * sigma) * ratio * kummer_1f1(-0.5, b, -0.5 * float(w))


def alpha_sigma_norm(p: MetricPoint, v: np.ndarray) -> float:
    """Lower-bound norm sqrt(alpha * v^T Sigma v)."""
    v = np.asarray(v, dtype=float)
    sigma, _ = _sigma_and_signal(p.jac.mean, p.jac.cov, v)
    return math.sqrt(alpha_coefficient(p.dim_data) * sigma)


def stochastic_norm_sample(p: MetricPoint, v: np.ndarray, seed: int) -> float:
    """One draw of the stochastic norm sqrt(v^T J^T J v)."""
    v = np.asarray(v, dtype=float)
    spec = WishartSpec(dof=p.dim_data, scale=p.jac.cov, mean_jacobian=p.jac.mean)
    return float(np.linalg.norm(sample_jacobian(spec, seed) @ v))


def alpha_coefficient(dim_data: int) -> float:
    """The tight constant 2 (Gamma(D/2 + 1/2)/Gamma(D/2))^2, in (0, D]."""
    if dim_data < 1:
        raise ValueError("dim_data must be >= 1")
    half = 0.5 * dim_data
    return 2.0 * math.exp(2.0 * log_gamma_ratio(half + 0.5, half))


def omega(p: MetricPoint, v: np.ndarray) -> float:
    """Non-centrality ratio (v^T Sigma v)^{-1} v^T E[J]^T E[J] v.

    Scale-invariant in v. Reported as +inf where it is not a finite number
    (`_noncentrality`), where the norms take their deterministic limit.
    """
    v = np.asarray(v, dtype=float)
    w, live = _noncentrality(*_sigma_and_signal(p.jac.mean, p.jac.cov, v))
    return float(w) if live else math.inf


def gap_bound(d: int, omega):
    """Wishart bound 1/(D + omega) + omega/(D + omega)^2 on the relative gap
    (riemann - finsler) / riemann of a direction with noncentrality omega.

    Decreasing in omega, and 0 in the deterministic limit omega = +inf.
    Takes a scalar (returns a float) or an array (returns an array).
    """
    w = np.asarray(omega, dtype=float)
    finite = np.isfinite(w)
    safe = np.where(finite, w, 0.0)
    out = np.where(finite, 1.0 / (d + safe) + safe / (d + safe) ** 2, 0.0)
    return float(out) if out.ndim == 0 else out


def _quadratic_forms(mats, V) -> np.ndarray:
    # (n, K) array of v^T M v for the n q x q matrices M, clamped at zero
    spec = "kq,nqp,kp->nk" if V.ndim == 2 else "nkq,nqp,nkp->nk"
    return np.maximum(np.einsum(spec, V, mats, V), 0.0)


def _sigma_and_signal_batch(means, covs, V) -> tuple[np.ndarray, np.ndarray]:
    # (n, K) arrays of v^T Sigma v and ||E[J] v||^2, both clamped at zero;
    # the signal comes from the q x q Gram, so no (n, K, D) array is formed
    gram = np.einsum("ndq,ndp->nqp", means, means)
    return _quadratic_forms(covs, V), _quadratic_forms(gram, V)


def norms_sq(means, covs, dim_data, V, kind: str) -> np.ndarray:
    """Squared norms of many directions at many points, shape (n, K).

    means (n, D, q) and covs (n, q, q) are the Jacobian posteriors of n
    points; V holds the directions, either (K, q) shared by every point or
    (n, K, q) per point. dim_data is the data dimension D of every point,
    or an (n,) integer array with one D per point; then row i equals, bit
    for bit, the call with the int dim_data[i] on that row alone, so points
    of several dimensions go through one call, zero-padded to common D and
    q (zero rows of E[J] and zero rows and columns of Sigma and V leave
    v^T Sigma v and the Gram unchanged). kind is one of `NORM_KINDS`: the
    squares of `riemannian_norm`, `finsler_norm`, `alpha_sigma_norm` or of
    the Euclidean norm, or (kind "omega") the noncentrality `omega` itself,
    +inf where the norms take their deterministic limit. The signal
    ||E[J] v||^2 comes from the q x q Gram E[J]^T E[J]; each block's values
    are `_norms_from_forms` of its `_sigma_and_signal_batch`. Points are
    evaluated in blocks of about 16384 values, so the working memory beyond
    the result does not grow with n.
    """
    _check_kind(kind, NORM_KINDS)
    if kind == "euclid":
        V = np.asarray(V, dtype=float)
        return np.broadcast_to(np.sum(V * V, axis=-1), (len(means), V.shape[-2])).copy()
    return _norms_sq_of_kinds(means, covs, dim_data, V, (kind,))[0]


def _check_kind(kind: str, kinds: tuple) -> None:
    """Raise a ValueError unless kind is one of kinds (`METRIC_KINDS` or
    `NORM_KINDS`)."""
    if kind not in kinds:
        raise ValueError(f"unknown norm kind {kind!r}, expected one of {kinds}")


def _norms_sq_of_kinds(means, covs, dim_data, V, kinds) -> list:
    """`norms_sq` of each kind in kinds (`NORM_KINDS` but euclid), one array
    per kind, from one `_sigma_and_signal_batch` pass per block for all of
    them: each array is the one-kind call's, bit for bit."""
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    V = np.asarray(V, dtype=float)
    n, k = means.shape[0], V.shape[-2]
    per_point = np.ndim(dim_data) > 0
    if per_point:
        dim_data = np.asarray(dim_data)
        if dim_data.shape != (n,) or dim_data.dtype.kind not in "iu":
            raise ValueError(f"dim_data must be an int or {n} integers, one per point")
    outs = [np.empty((n, k)) for _ in kinds]
    step = max(1, _BLOCK_VALUES // max(k, 1))
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        forms = _sigma_and_signal_batch(means[block], covs[block], V if V.ndim == 2 else V[block])
        for out, kind in zip(outs, kinds):
            out[block] = _norms_from_forms(
                *forms, dim_data[block, None] if per_point else dim_data, kind
            )
    return outs


def _alpha(dim_data):
    # alpha_coefficient of an int D, or of each entry of an array of D
    if np.ndim(dim_data) == 0:
        return alpha_coefficient(dim_data)
    values, which = np.unique(dim_data, return_inverse=True)
    return np.array([alpha_coefficient(int(d)) for d in values])[which.reshape(dim_data.shape)]


def _norms_from_forms(sigma, signal, dim_data, kind: str) -> np.ndarray:
    """`norms_sq` of a kind other than euclid from the forms sigma =
    v^T Sigma v and signal = ||E[J] v||^2 (arrays of one shape, sigma
    clamped at zero); dim_data is an int or an integer array that
    broadcasts to their shape."""
    if kind == "finsler":
        return _finsler_terms(sigma, signal, dim_data)[0]
    if kind == "alpha_sigma":
        return _alpha(dim_data) * sigma
    if kind == "riemann":
        return signal + dim_data * sigma
    if kind == "omega":
        w, live = _noncentrality(sigma, signal)
        return np.where(live, w, math.inf)
    raise ValueError(f"no norm kind {kind!r}")


def _noncentrality(sigma, signal):
    """(w, live): w = signal / sigma, floats or arrays of one shape, and
    where w is finite; elsewhere every norm is its deterministic limit."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.divide(signal, sigma)
    return w, np.isfinite(w)


def _finsler_terms(sigma, signal, dim_data):
    """Squared Finsler norms from the forms sigma and signal, with their
    terms: (norm_sq, live, w, d, h, a), live from `_noncentrality` and, at
    the live entries only, w = signal/sigma, d = D, h = 1F1(-1/2, D/2, -w/2)
    and a = `alpha_coefficient(D)`. dim_data is an int or an integer array
    that broadcasts to sigma's shape."""
    w, live = _noncentrality(sigma, signal)
    w = w[live]
    if np.ndim(dim_data) > 0:
        dim_data = np.broadcast_to(dim_data, sigma.shape)[live]
    h = kummer_1f1_array(-0.5, 0.5 * dim_data, -0.5 * w)
    a = _alpha(dim_data)
    out = signal.copy()
    # (a sigma) h^2, but (a sigma h) h where h^2 overflows: at D = 1,
    # h ~ sqrt(pi w / 2), whose square overflows as w nears the largest double
    scaled = a * sigma[live]
    with np.errstate(over="ignore"):
        hh = h * h
    over = np.isinf(hh)
    scaled[over], hh[over] = scaled[over] * h[over], h[over]
    out[live] = scaled * hh
    return out, live, w, dim_data, h, a


def _norm_partials(sigma, signal, dim_data, kind: str) -> tuple:
    """`_norms_from_forms` of kind riemann, alpha_sigma or finsler and its
    partials (norm_sq, d/dsigma, d/dsignal); a constant partial is a number
    or an array that broadcasts to sigma's shape. riemann (D, 1);
    alpha_sigma (alpha, 0); finsler, with w = signal/sigma, h =
    1F1(-1/2, D/2, x) at x = -w/2 and hx = dh/dx = -1F1(1/2, D/2 + 1, x)/D:
    alpha h 1F1(1/2, D/2, x) and -alpha h hx where w is finite; in the
    deterministic limit the limits as sigma -> 0+, (D - 1, 1) with a signal
    (norm_sq = signal + (D - 1) sigma + O(sigma^2)) and (alpha, 1) without.
    d/dsigma is alpha h (h + hx w), with h + hx w = 1F1(1/2, D/2, x) by
    x M'(a, b, x) = a (M(a+1, b, x) - M(a, b, x)): a positive series, where
    the sum cancels as w grows."""
    if kind == "finsler":
        norm_sq, live, w, d, h, a = _finsler_terms(sigma, signal, dim_data)
        hx = kummer_1f1_array(0.5, 0.5 * d + 1.0, -0.5 * w) / -d
        d_sigma = np.where(signal > 0.0, np.subtract(dim_data, 1.0), _alpha(dim_data))
        d_signal = np.ones(sigma.shape)
        d_sigma[live] = a * h * kummer_1f1_array(0.5, 0.5 * d, -0.5 * w)
        d_signal[live] = -a * h * hx
        return norm_sq, d_sigma, d_signal
    if kind == "riemann":
        return _norms_from_forms(sigma, signal, dim_data, kind), dim_data, 1.0
    if kind == "alpha_sigma":
        return _norms_from_forms(sigma, signal, dim_data, kind), _alpha(dim_data), 0.0
    raise ValueError(f"no partials for norm kind {kind!r}")


def bound_report(p: MetricPoint, v: np.ndarray) -> BoundReport:
    """All three norms of v with the sandwich inequality evaluated."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("v must be nonzero")
    return BoundReport(
        v=v,
        lower=alpha_sigma_norm(p, v),
        finsler=finsler_norm(p, v),
        upper=riemannian_norm(p, v),
        alpha=alpha_coefficient(p.dim_data),
        omega=omega(p, v),
    )


def relative_gap(p: MetricPoint, v: np.ndarray) -> tuple[float, float, float]:
    """Relative gap between the two norms and its two upper bounds.

    Returns (gap, wishart_bound, jensen_bound) where
    gap = (||v||_R - ||v||_F) / ||v||_R, the first bound is
    1/(D + omega) + omega/(D + omega)^2, and the second is
    Var[z]/(2 E[z]^2) for z = v^T G v computed through the scalar moment
    formulas. For a Gaussian Jacobian the two coincide; they are computed
    through different code paths on purpose.
    """
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("v must be nonzero")
    upper = riemannian_norm(p, v)
    gap = 0.0 if upper == 0.0 else (upper - finsler_norm(p, v)) / upper
    w = omega(p, v)
    d = p.dim_data
    if math.isinf(w):
        # deterministic limit: both bounds collapse to zero
        return gap, 0.0, 0.0
    wishart_bound = gap_bound(d, w)
    # the Jensen bound does not depend on sigma: moments at sigma = 1
    m1, m2 = wishart_scalar_moments(ScalarWishart(dof=d, sigma=1.0, omega=w))
    jensen_bound = (m2 - m1 * m1) / (2.0 * m1 * m1)
    return gap, wishart_bound, jensen_bound


def fundamental_form(p: MetricPoint, v: np.ndarray) -> np.ndarray:
    """Half the Hessian of the squared Finsler norm at v.

    Central finite differences with step 1e-5 ||v||. Positive definiteness
    of the result is the strong-convexity property of the metric; the
    quadratic homogeneity identity v^T (Hess F^2 / 2) v = F(v)^2 holds to
    the differencing accuracy.
    """
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("v must be nonzero")
    q = v.shape[0]
    h = 1e-5 * float(np.linalg.norm(v))

    def g(u: np.ndarray) -> float:
        return finsler_norm(p, u) ** 2

    g0 = g(v)
    hess = np.empty((q, q))
    eye = np.eye(q)
    for i in range(q):
        ei = h * eye[i]
        hess[i, i] = (g(v + ei) - 2.0 * g0 + g(v - ei)) / h**2
        for j in range(i):
            ej = h * eye[j]
            hess[i, j] = hess[j, i] = (
                g(v + ei + ej) - g(v + ei - ej) - g(v - ei + ej) + g(v - ei - ej)
            ) / (4.0 * h**2)
    return 0.5 * hess
