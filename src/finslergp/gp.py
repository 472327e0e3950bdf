"""Gaussian-process regression with Jacobian posteriors.

A GP maps latent coordinates to data space; its derivative is again a GP,
so the Jacobian at a latent point has a Gaussian posterior with one shared
q x q covariance across all D output dimensions. Both the closed-form
(kernel derivative) and the finite-difference constructions are provided,
along with marginal-likelihood fitting of the hyperparameters.

Linear algebra on N x N operands or results (N training points) goes
through scipy's BLAS and LAPACK only: the factorization (`dpotrf`), the
inverse (`dpotri`), the products (`dsyrk`, `dgemm`) and the solves
(`cho_solve`, `solve_triangular`). numpy and scipy each ship their own
OpenBLAS with its own thread pool; after numpy's pool has run, its worker
threads keep spinning and take the cores from scipy's. At N = 500 on 2
cores, one numpy Cholesky factorization halves the scipy solves finished
in the next 100 ms, and one numpy N x N product cuts them to a sixth. The N x N matrices are built in place: the kernel plus noise and
its factor share one buffer, and in the fit the inverse and the
likelihood-gradient matrix share the factor's.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, cho_solve, lapack, solve_triangular

from .data import ParseError

__all__ = [
    "RBF",
    "MATERN52",
    "Kernel",
    "GpModel",
    "JacobianPosterior",
    "kernel_eval",
    "make_model",
    "posterior_mean_var",
    "jacobian_posterior_closed_form",
    "jacobian_posterior_discretized",
    "fit_hyperparameters",
    "pca_latents",
    "fit_gplvm",
    "save_model",
    "load_model",
]

RBF = "rbf"
MATERN52 = "matern52"
_FAMILIES = (RBF, MATERN52)

_JITTER0 = 1e-8
_JITTER_ESCALATIONS = 5

# what load_model needs from a model file; output_means is recomputed
_MODEL_KEYS = ("kernel", "noise", "latent_inputs", "outputs")
_KERNEL_KEYS = ("family", "lengthscale", "variance")


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance with one lengthscale and one variance."""

    family: str
    lengthscale: float
    variance: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {_FAMILIES}")
        if self.lengthscale <= 0.0 or self.variance <= 0.0:
            raise ValueError("lengthscale and variance must be positive")


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


def _clamp_psd_batch(covs: np.ndarray) -> np.ndarray:
    sym = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    if np.all(vals[..., 0] >= 0.0):
        return sym
    vals = np.clip(vals, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", vecs, vals, vecs)


# ---------------------------------------------------------------------------
# kernel algebra


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of a and b, (n, m), summed one
    coordinate at a time without building the (n, m, q) differences; for
    q <= 2 bit-identical to an einsum over those differences."""
    diff = a[:, None, 0] - b[None, :, 0]
    r2 = diff * diff
    for j in range(1, a.shape[1]):
        np.subtract(a[:, None, j], b[None, :, j], out=diff)
        diff *= diff
        r2 += diff
    return r2


def _kernel_matrix(k: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _kernel_of_r2(k, _sqdist(a, b))


def _kernel_of_r2(k: Kernel, r2: np.ndarray) -> np.ndarray:
    """k at squared distances r2."""
    if k.family == RBF:
        return k.variance * np.exp(-0.5 * r2 / k.lengthscale**2)
    u = math.sqrt(5.0) / k.lengthscale
    r = np.sqrt(r2)
    return k.variance * (1.0 + u * r + (u * r) ** 2 / 3.0) * np.exp(-u * r)


def _radial_coefficients(k: Kernel, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second radial coefficients (c, e) of k at squared distances r2.

    With d = z1 - z2 and r = |d|, the gradient of k(z1, z2) in z1 is c d and
    its Hessian in z1 is c I + e d d^T, where c = k'(r)/r and e = c'(r)/r.
    RBF: c = -sigma^2/l^2 exp(-r^2/(2 l^2)), e = -c/l^2. Matern-5/2 with
    u = sqrt(5)/l: c = -(sigma^2 u^2/3)(1 + u r) exp(-u r),
    e = (sigma^2 u^4/3) exp(-u r); both are finite at r = 0.
    """
    if k.family == RBF:
        c = -(k.variance / k.lengthscale**2) * np.exp(-0.5 * r2 / k.lengthscale**2)
        return c, -c / k.lengthscale**2
    u = math.sqrt(5.0) / k.lengthscale
    r = np.sqrt(r2)
    decay = np.exp(-u * r)
    c = -(k.variance * u**2 / 3.0) * (1.0 + u * r) * decay
    return c, (k.variance * u**4 / 3.0) * decay


def _kernel_grad_first(k: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of k(z1, z2) in z1, for all pairs: shape (n, m, q)."""
    diff = a[:, None, :] - b[None, :, :]
    c, _ = _radial_coefficients(k, np.einsum("nmq,nmq->nm", diff, diff))
    return c[:, :, None] * diff


def _prior_derivative_cov(k: Kernel, q: int) -> np.ndarray:
    """Cross derivative of k in both arguments at coincident points, q x q."""
    return -_radial_coefficients(k, np.zeros(()))[0] * np.eye(q)


def kernel_eval(k: Kernel, z1: np.ndarray, z2: np.ndarray) -> float:
    """Covariance between function values at two latent points."""
    z1 = np.atleast_2d(np.asarray(z1, dtype=float))
    z2 = np.atleast_2d(np.asarray(z2, dtype=float))
    return float(_kernel_matrix(k, z1, z2)[0, 0])


# ---------------------------------------------------------------------------
# model construction


@dataclass(frozen=True, eq=False)
class GpModel:
    """Fitted GP regressor from latent space to data space.

    Immutable after construction; chol is the lower Cholesky factor of
    K(X, X) + noise I and alpha the cached solve against the centered
    outputs, so predictions never refactorize.
    """

    kernel: Kernel
    noise: float
    latent_inputs: np.ndarray
    outputs: np.ndarray
    output_means: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray

    @property
    def dim_latent(self) -> int:
        return self.latent_inputs.shape[1]

    @property
    def dim_data(self) -> int:
        return self.outputs.shape[1]

    @property
    def latent_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.latent_inputs.min(axis=0), self.latent_inputs.max(axis=0)


def _finite_cholesky(kmat: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of the symmetric, C-ordered kmat, computed in
    kmat's own buffer, or None if LAPACK fails."""
    # kmat.T is the same symmetric matrix in Fortran order, so dpotrf takes
    # it without a copy; its upper factor U = L^T, read in C order, is L.
    # LAPACK can report success yet emit non-finite factors (NaN/inf input);
    # treat those as failures so they reach the jitter ladder
    upper, info = lapack.dpotrf(kmat.T, lower=False, overwrite_a=True)
    if info != 0 or not np.all(np.isfinite(upper)):
        return None
    return upper.T


def _robust_cholesky(gram: np.ndarray, noise: float, variance: float) -> np.ndarray:
    """Lower Cholesky factor of gram + noise I, built and factored in one
    new buffer; gram itself is left as it is."""
    kmat = np.array(gram, dtype=float, order="C")
    diag = kmat.reshape(-1)[:: len(kmat) + 1]
    diag += noise
    chol = _finite_cholesky(kmat)
    if chol is not None:
        return chol
    # jitter ladder: 1e-8 * variance, escalated tenfold at most five times;
    # each attempt rebuilds the buffer the failed one overwrote
    jitter = _JITTER0 * variance
    with np.errstate(invalid="ignore"):
        for _ in range(_JITTER_ESCALATIONS):
            np.copyto(kmat, gram)
            diag += noise
            diag += jitter
            chol = _finite_cholesky(kmat)
            if chol is not None:
                return chol
            jitter *= 10.0
    if math.isfinite(jitter):
        detail = f" even with jitter up to {jitter / 10:.1e}"
    else:
        detail = " (non-finite kernel matrix)"
    raise np.linalg.LinAlgError(f"kernel matrix factorization failed{detail}")


def _gradient_matrix(chol: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """M = alpha alpha^T - D K^-1 from the lower Cholesky factor of K and
    alpha = K^-1 Yc (N x D), in chol's buffer, which it overwrites.

    LAPACK potri writes K^-1 to one triangle and BLAS syrk updates that
    triangle to M; the triangle is then mirrored row by row."""
    kinv, info = lapack.dpotri(chol.T, lower=False, overwrite_c=True)
    if info:
        raise np.linalg.LinAlgError(f"kernel matrix inversion failed (potri info {info})")
    mmat = blas.dsyrk(1.0, alpha, beta=-float(alpha.shape[1]), c=kinv, overwrite_c=True).T
    for i in range(len(mmat) - 1):
        mmat[i, i + 1 :] = mmat[i + 1 :, i]
    return mmat


def make_model(X: np.ndarray, Y: np.ndarray, kernel: Kernel, noise: float) -> GpModel:
    """Assemble a GpModel: center outputs, factor the kernel matrix once."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X must be N x q and Y must be N x D with matching N")
    if X.shape[0] < 2:
        raise ValueError("need at least two training points")
    if noise < 0.0:
        raise ValueError("noise must be nonnegative")
    means = Y.mean(axis=0)
    chol = _robust_cholesky(_kernel_matrix(kernel, X, X), noise, kernel.variance)
    alpha = cho_solve((chol.T, False), Y - means)
    return GpModel(
        kernel=kernel,
        noise=noise,
        latent_inputs=X,
        outputs=Y,
        output_means=means,
        chol=chol,
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# prediction


def _query_points(Z: np.ndarray) -> np.ndarray:
    """Z as an n x q float array, checked finite once: the batch posteriors
    below solve against the model's factor, finite by construction, and
    skip scipy's per-solve scans of it."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if not np.all(np.isfinite(Z)):
        raise ValueError("latent points must be finite")
    return Z


def _posterior_mean_var_batch(m: GpModel, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Z = _query_points(Z)
    ks = _kernel_matrix(m.kernel, Z, m.latent_inputs)
    means = m.output_means + ks @ m.alpha
    w = solve_triangular(m.chol, ks.T, lower=True, check_finite=False)
    var = np.maximum(m.kernel.variance - np.einsum("ij,ij->j", w, w), 0.0)
    return means, var


def posterior_mean_var(m: GpModel, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Predictive mean (D-vector) and the shared per-output variance at z."""
    means, var = _posterior_mean_var_batch(m, np.asarray(z, dtype=float)[None, :])
    return means[0], float(var[0])


def _jacobian_posterior_batch(m: GpModel, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivative posteriors at n points: means (n, D, q), covs (n, q, q)."""
    Z = _query_points(Z)
    n, q = Z.shape
    grads = _kernel_grad_first(m.kernel, Z, m.latent_inputs)  # (n, N, q)
    means = np.einsum("nNq,ND->nDq", grads, m.alpha)
    rhs = grads.transpose(1, 0, 2).reshape(len(m.latent_inputs), n * q)
    w = solve_triangular(m.chol, rhs, lower=True, check_finite=False)
    w = w.reshape(len(m.latent_inputs), n, q)
    explained = np.einsum("Nnq,Nnp->nqp", w, w)
    covs = _prior_derivative_cov(m.kernel, q)[None, :, :] - explained
    return means, _clamp_psd_batch(covs)


def _jacobian_posterior_batch_dz(
    m: GpModel, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derivative posteriors at n points and their derivatives in z.

    Returns means (n, D, q) and covs (n, q, q) as `_jacobian_posterior_batch`
    does, plus dmeans (n, D, q, q) and dcovs (n, q, q, q), whose last axis
    is the coordinate of z differentiated. dcovs is the derivative of the
    covariance before the PSD clamp of covs. The kernel gradients and
    Hessians against the training inputs share one triangular solve with
    q + q^2 columns per point.
    """
    Z = _query_points(Z)
    n, q = Z.shape
    big_n = len(m.latent_inputs)
    diff = Z[:, None, :] - m.latent_inputs[None, :, :]  # (n, N, q)
    c, e = _radial_coefficients(m.kernel, np.einsum("nNq,nNq->nN", diff, diff))
    grads = c[:, :, None] * diff
    hess = e[:, :, None, None] * diff[:, :, :, None] * diff[:, :, None, :]
    hess += c[:, :, None, None] * np.eye(q)  # (n, N, q, q)
    means = np.einsum("nNq,ND->nDq", grads, m.alpha)
    dmeans = np.einsum("nNqp,ND->nDqp", hess, m.alpha)
    cols = q + q * q
    rhs = np.concatenate([grads, hess.reshape(n, big_n, q * q)], axis=2)
    w = solve_triangular(
        m.chol, rhs.transpose(1, 0, 2).reshape(big_n, n * cols), lower=True, check_finite=False
    ).reshape(big_n, n, cols)
    wg = w[:, :, :q]
    wh = w[:, :, q:].reshape(big_n, n, q, q)
    covs = _prior_derivative_cov(m.kernel, q)[None, :, :] - np.einsum(
        "Nnq,Nnp->nqp", wg, wg
    )
    # d/dz_c of -(W^T W)_ab with dW/dz_c = L^-1 (Hessian column c)
    cross = np.einsum("Nnac,Nnb->nabc", wh, wg)
    dcovs = -(cross + cross.transpose(0, 2, 1, 3))
    return means, _clamp_psd_batch(covs), dmeans, dcovs


def jacobian_posterior_closed_form(m: GpModel, z: np.ndarray) -> JacobianPosterior:
    """Jacobian posterior at z via analytic kernel derivatives."""
    means, covs = _jacobian_posterior_batch(m, np.asarray(z, dtype=float)[None, :])
    return JacobianPosterior(mean=means[0], cov=covs[0], dim_data=m.dim_data)


def jacobian_posterior_discretized(m: GpModel, z: np.ndarray, h: float) -> JacobianPosterior:
    """Jacobian posterior at z from forward differences with step h.

    Uses the joint predictive covariance of z and the q shifted points
    z + h e_j, so the covariance of the difference quotients is exact for
    the given step rather than a diagonal approximation.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if h > m.kernel.lengthscale / 10.0:
        warnings.warn(
            f"difference step h={h:g} exceeds a tenth of the lengthscale "
            f"{m.kernel.lengthscale:g}; the Jacobian will be smoothed",
            stacklevel=2,
        )
    z = np.asarray(z, dtype=float)
    q = z.shape[0]
    pts = np.vstack([z[None, :], z[None, :] + h * np.eye(q)])

    ks = _kernel_matrix(m.kernel, pts, m.latent_inputs)
    means = ks @ m.alpha  # centered predictive means, (q+1, D)
    w = solve_triangular(m.chol, ks.T, lower=True)
    joint = _kernel_matrix(m.kernel, pts, pts) - w.T @ w  # (q+1, q+1)

    mean = (means[1:] - means[0]).T / h  # (D, q)
    cov = (joint[1:, 1:] - joint[1:, :1] - joint[:1, 1:] + joint[0, 0]) / h**2
    return JacobianPosterior(mean=mean, cov=cov, dim_data=m.dim_data)


# ---------------------------------------------------------------------------
# fitting


def _log_marginal(chol: np.ndarray, alpha: np.ndarray, yc: np.ndarray) -> float:
    """Log marginal likelihood from the Cholesky factor, alpha and the centred outputs."""
    n, d = yc.shape
    return (
        -0.5 * float(np.sum(yc * alpha))
        - d * float(np.sum(np.log(np.diag(chol))))
        - 0.5 * n * d * math.log(2.0 * math.pi)
    )


def _log_marginal_and_grad(
    X: np.ndarray, Yc: np.ndarray, kernel: Kernel, noise: float
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient in (log lengthscale,
    log variance, log noise)."""
    return _log_marginal_terms(_sqdist(X, X), Yc, kernel, noise)[:2]


def _log_marginal_grad_mmat(
    X: np.ndarray, Yc: np.ndarray, kernel: Kernel, noise: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """`_log_marginal_and_grad` plus M = alpha alpha^T - D K^-1, from which
    the gradient in the latents follows (`_fit_objective`), so a step
    that moves the latents factorizes the kernel matrix once."""
    return _log_marginal_terms(_sqdist(X, X), Yc, kernel, noise)[:3]


def _log_marginal_terms(
    r2: np.ndarray, Yc: np.ndarray, kernel: Kernel, noise: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """`_log_marginal_grad_mmat` at the squared distances r2 of the latents,
    plus the radial coefficient c at r2 that the latent gradient also needs."""
    gram = _kernel_of_r2(kernel, r2)
    chol = _robust_cholesky(gram, noise, kernel.variance)
    alpha = cho_solve((chol.T, False), Yc)
    lml = _log_marginal(chol, alpha, Yc)
    mmat = _gradient_matrix(chol, alpha)
    c = _radial_coefficients(kernel, r2)[0]
    grad = np.array(
        [
            0.5 * float(np.sum(mmat * (-c * r2))),
            0.5 * float(np.sum(mmat * gram)),
            0.5 * noise * float(np.trace(mmat)),
        ]
    )
    return lml, grad, mmat, c


def _fit_objective(params, X, r2, Yc, family) -> tuple[float, np.ndarray]:
    """`_adam_ascent`'s objective and gradient at params = [log theta] with the
    latents X fixed and r2 their squared distances, or at [log theta, X] with
    r2 None: the log marginal likelihood, less |X|^2/2 when X moves. Its own
    function, so its N x N arrays are freed before the next step factorizes."""
    ell, var, noise = np.exp(params[:3])
    kernel = Kernel(family, ell, var)
    if r2 is not None:
        return _log_marginal_terms(r2, Yc, kernel, noise)[:2]
    X = params[3:].reshape(X.shape)
    lml, grad, w, c = _log_marginal_terms(_sqdist(X, X), Yc, kernel, noise)
    # d lml / d x_n = sum_m M[n, m] grad_z1 k(x_n, x_m), using symmetry of M;
    # w = M * c in M's buffer, and w.T is w in Fortran order for dgemm
    w *= c
    np.fill_diagonal(w, 0.0)
    gx = w.sum(axis=1)[:, None] * X - blas.dgemm(1.0, w.T, X, trans_a=True) - X
    return lml - 0.5 * float(np.sum(X * X)), np.concatenate([grad, gx.ravel()])


def _adam_ascent(
    X: np.ndarray,
    Y: np.ndarray,
    k0: Kernel,
    noise0: float,
    steps: int,
    lr: float,
    optimize_latents: bool,
) -> GpModel:
    """Adam ascent of `_fit_objective` from k0, noise0 and X; returns the
    model of the best step seen."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if steps < 0 or not noise0 >= 0.0 or not lr > 0.0:
        raise ValueError(f"need steps >= 0, noise >= 0, lr > 0; got {steps}, {noise0}, {lr}")
    if steps == 0:
        return make_model(X, Y, k0, noise0)
    Yc = Y - Y.mean(axis=0)
    # fixed latents: their squared distances serve every step
    r2 = None if optimize_latents else _sqdist(X, X)
    # one state vector [log theta, X]: every Adam operation is elementwise,
    # so each entry follows exactly the update it would get on its own
    params = np.log(np.array([k0.lengthscale, k0.variance, max(noise0, 1e-12)]))
    if optimize_latents:
        params = np.concatenate([params, X.ravel()])
    best, best_objective = params, -np.inf
    m1 = m2 = np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for step in range(steps + 1):
        objective, grad = _fit_objective(params, X, r2, Yc, k0.family)
        if objective > best_objective:
            best, best_objective = params, objective
        if step == steps:
            break
        m1 = beta1 * m1 + (1.0 - beta1) * grad
        m2 = beta2 * m2 + (1.0 - beta2) * grad**2
        m1_hat = m1 / (1.0 - beta1 ** (step + 1))
        m2_hat = m2 / (1.0 - beta2 ** (step + 1))
        params = params + lr * m1_hat / (np.sqrt(m2_hat) + eps)

    ell, var, noise = np.exp(best[:3])
    if optimize_latents:
        X = best[3:].reshape(X.shape)
    return make_model(X, Y, Kernel(k0.family, ell, var), noise)


def fit_hyperparameters(
    X: np.ndarray,
    Y: np.ndarray,
    k0: Kernel,
    noise0: float,
    steps: int = 200,
    lr: float = 0.05,
) -> GpModel:
    """Maximize the log marginal likelihood over kernel and noise.

    Adam ascent on (log lengthscale, log variance, log noise); the returned
    model carries the best parameters seen, so its likelihood is never below
    the initial one. steps=0 returns the initial hyperparameters unchanged.
    """
    return _adam_ascent(X, Y, k0, noise0, steps, lr, optimize_latents=False)


def pca_latents(Y: np.ndarray, q: int) -> np.ndarray:
    """Deterministic PCA initialization of latent coordinates.

    Projects centered outputs onto the top q principal directions and
    rescales each coordinate to unit variance. Column signs are fixed by
    making the largest-magnitude loading positive, so the result does not
    depend on the SVD's sign convention.
    """
    Y = np.asarray(Y, dtype=float)
    if not 1 <= q <= Y.shape[1]:
        raise ValueError(f"latent dimension {q} not in [1, {Y.shape[1]}] (data dimension)")
    yc = Y - Y.mean(axis=0)
    u, s, _ = np.linalg.svd(yc, full_matrices=False)
    x = u[:, :q] * s[:q]
    for j in range(x.shape[1]):
        i = np.argmax(np.abs(x[:, j]))
        if x[i, j] < 0:
            x[:, j] = -x[:, j]
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    return x / std


def fit_gplvm(
    Y: np.ndarray,
    q: int,
    k0: Kernel,
    noise0: float,
    steps: int = 200,
    lr: float = 0.05,
    optimize_latents: bool = False,
) -> GpModel:
    """Fit a latent-variable model: PCA latents, then hyperparameters.

    With optimize_latents the latent coordinates are moved jointly with the
    hyperparameters by Adam ascent on the posterior (marginal likelihood
    plus a standard normal prior on the latents); by default they stay at
    the PCA initialization so fits are exactly reproducible.
    """
    return _adam_ascent(pca_latents(Y, q), Y, k0, noise0, steps, lr, optimize_latents)


def log_marginal_likelihood(m: GpModel) -> float:
    """Log marginal likelihood of the model's own training data, from the
    cached factorization."""
    return _log_marginal(m.chol, m.alpha, m.outputs - m.output_means)


# ---------------------------------------------------------------------------
# persistence


def save_model(m: GpModel, path: str) -> None:
    """Write the model as JSON (matrices row-major, full double precision)."""
    doc = {
        "kernel": {
            "family": m.kernel.family,
            "lengthscale": m.kernel.lengthscale,
            "variance": m.kernel.variance,
        },
        "noise": m.noise,
        "latent_inputs": m.latent_inputs.tolist(),
        "outputs": m.outputs.tolist(),
        "output_means": m.output_means.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> GpModel:
    """Rebuild a model from JSON; the Cholesky factor is recomputed.

    Raises ParseError when a key is missing, a value is not a number, or
    latent_inputs and outputs are not N x q and N x D matrices with the
    same N.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: a model file holds one JSON object")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if isinstance(doc.get("kernel"), dict):
        missing += [f"kernel.{key}" for key in _KERNEL_KEYS if key not in doc["kernel"]]
    if missing:
        raise ParseError(f"{path}: model file lacks {', '.join(missing)}")
    try:
        kernel = Kernel(
            family=doc["kernel"]["family"],
            lengthscale=float(doc["kernel"]["lengthscale"]),
            variance=float(doc["kernel"]["variance"]),
        )
        X = np.asarray(doc["latent_inputs"], dtype=float)
        Y = np.asarray(doc["outputs"], dtype=float)
        noise = float(doc["noise"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model file: {exc}")
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ParseError(
            f"{path}: latent_inputs and outputs must be N x q and N x D matrices "
            f"with the same N, got shapes {X.shape} and {Y.shape}"
        )
    return make_model(X, Y, kernel, noise)
