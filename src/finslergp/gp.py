"""Gaussian-process regression with Jacobian posteriors.

A GP maps latent coordinates to data space; its derivative is again a GP,
so the Jacobian at a latent point has a Gaussian posterior with one shared
q x q covariance across all D output dimensions. It is computed in closed
form from the kernel's derivatives; the hyperparameters are fitted to the
marginal likelihood by `_lbfgs`.

Linear algebra on N x N operands or results (N training points) goes
through scipy's BLAS and LAPACK only: the factorization (`dpotrf`), the
inverse (`dpotri`), the products (`dsyrk`, `dgemm`) and the solves
(`cho_solve`, `solve_triangular`). numpy's OpenBLAS keeps a thread pool of
its own, whose spinning workers take the cores from scipy's (README,
Timing). The N x N matrices are built in place: `make_model` forms the
kernel in the squared distances' buffer and factors it there (the jitter
ladder rebuilds the kernel only when a factorization fails), and in the fit
the inverse and the likelihood-gradient matrix share the factor's buffer.
A fit evaluation forms the kernel and its radial coefficient from one exp
(one sqrt and one exp for matern52) and takes its traces in one scratch
buffer. The in-place steps are the formulas' operations in the formulas'
order, so every result has the bits of the formula with temporaries.

Those routines come from scipy's two extension modules `_flapack` and
`_fblas`, which `_lapack.lapack_blas` loads at a command's first GP call
without the scipy or scipy.linalg package init: a command that never touches
a GP (`generate`, `verify`) loads no scipy module, and one that does loads
these two alone. The two solves are `_lapack`'s `cho_solve` and
`solve_triangular`, which gp's code calls by those names in its own
namespace: rebinding them there (as a tracer does) sees every solve.

The Jacobian posteriors at n points are one pass, `_jacobian_pass`. The
kernel gradients against the training inputs are q planes of shape (n, N),
formed from the difference planes, whose squared distances hold the radial
coefficient (without the derivative in z, the gradients overwrite the
differences), and solved against the factor in one triangular solve of q
columns per point;
the derivative in z adds a second solve of q columns (2q per point) and
contracts the kernel Hessian with it, so no Hessian column is solved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _lbfgs
from ._lapack import cho_solve, lapack_blas, solve_triangular
from .data import ParseError

__all__ = [
    "RBF",
    "MATERN52",
    "Kernel",
    "GpModel",
    "JacobianPosterior",
    "make_model",
    "posterior_mean_var",
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
        if not (0.0 < self.lengthscale < math.inf and 0.0 < self.variance < math.inf):
            raise ValueError("lengthscale and variance must be finite and positive")


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
    r2 = _sqdist(a, b)
    return _kernel_of_r2(k, r2, out=r2)[0]


# The kernel and its radial coefficients below are evaluated one operation
# at a time into the out buffer, in the order and with the operands of the
# formulas in their docstrings, so an in-place result has the same bits as
# the formula evaluated with temporaries.


def _kernel_of_r2(k: Kernel, r2: np.ndarray, out: np.ndarray | None = None,
                  radial: bool = False) -> tuple:
    """(k, c): k at squared distances r2, in out's buffer when given (out may
    be r2), RBF sigma^2 exp(-r^2/(2 l^2)), Matern-5/2 with u = sqrt(5)/l
    sigma^2 (1 + u r + (u r)^2/3) exp(-u r); c is None unless radial, and
    then the radial coefficient of `_radial_coefficients`, from the same
    exp."""
    if k.family == RBF:
        kr = np.multiply(r2, -0.5, out=out)
        kr /= k.lengthscale**2
        np.exp(kr, out=kr)
        c = kr * -(k.variance / k.lengthscale**2) if radial else None
        kr *= k.variance
        return kr, c
    u = math.sqrt(5.0) / k.lengthscale
    kr = np.sqrt(r2, out=out)
    kr *= u
    decay = np.negative(kr)
    np.exp(decay, out=decay)
    poly = np.square(kr)
    poly /= 3.0
    kr += 1.0
    c = None
    if radial:
        c = kr * -(k.variance * u**2 / 3.0)
        c *= decay
    kr += poly
    kr *= k.variance
    kr *= decay
    return kr, c


def _radial_coefficients(k: Kernel, r2: np.ndarray, hessian: bool = True,
                         out: np.ndarray | None = None) -> tuple:
    """First and second radial coefficients (c, e) of k at squared distances
    r2, c in out's buffer when given (out may be r2); e is None unless
    hessian.

    With d = z1 - z2 and r = |d|, the gradient of k(z1, z2) in z1 is c d and
    its Hessian in z1 is c I + e d d^T, where c = k'(r)/r and e = c'(r)/r.
    RBF: c = -sigma^2/l^2 exp(-r^2/(2 l^2)), e = -c/l^2. Matern-5/2 with
    u = sqrt(5)/l: c = -(sigma^2 u^2/3)(1 + u r) exp(-u r),
    e = (sigma^2 u^4/3) exp(-u r); both are finite at r = 0.
    """
    if k.family == RBF:
        c = np.multiply(r2, -0.5, out=out)
        c /= k.lengthscale**2
        np.exp(c, out=c)
        c *= -(k.variance / k.lengthscale**2)
        if not hessian:
            return c, None
        e = np.negative(c)
        e /= k.lengthscale**2
        return c, e
    u = math.sqrt(5.0) / k.lengthscale
    c = np.sqrt(r2, out=out)
    c *= u
    decay = np.negative(c)
    np.exp(decay, out=decay)
    c += 1.0
    c *= -(k.variance * u**2 / 3.0)
    c *= decay
    if not hessian:
        return c, None
    decay *= k.variance * u**4 / 3.0
    return c, decay


def _differences(k: Kernel, a: np.ndarray, b: np.ndarray, hessian: bool = False) -> tuple:
    """Row differences of a and b as q C-ordered planes d[j] = a[:, j] - b[:, j],
    (q, n, m), and k's radial coefficients (c, e) at their squared distances.
    The squared distances are summed from the planes in `_sqdist`'s order
    (the same bits), and c is formed in their buffer."""
    d = np.subtract(a.T[:, :, None], b.T[:, None, :], order="C")
    r2 = d[0] * d[0]
    for plane in d[1:]:
        r2 += plane * plane
    return (d, *_radial_coefficients(k, r2, hessian, out=r2))


def _prior_derivative_cov(k: Kernel, q: int) -> np.ndarray:
    """Cross derivative of k in both arguments at coincident points, q x q."""
    return -_radial_coefficients(k, np.zeros(1), hessian=False)[0] * np.eye(q)


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
    upper, info = lapack_blas()[0].dpotrf(kmat.T, lower=False, overwrite_a=True)
    if info != 0 or not np.all(np.isfinite(upper)):
        return None
    return upper.T


def _robust_cholesky(kmat: np.ndarray, noise: float, variance: float, rebuild) -> np.ndarray:
    """Lower Cholesky factor of K + noise I, where kmat holds the symmetric,
    C-ordered kernel matrix K; it is factored in kmat's buffer, which it
    overwrites. rebuild() returns K again, and is called only when a
    factorization fails."""
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
            np.copyto(kmat, rebuild())
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
    lapack, blas = lapack_blas()
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
    for name, values in (("latent_inputs", X), ("outputs", Y)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    if not 0.0 <= noise < math.inf:
        raise ValueError("noise must be finite and nonnegative")
    means = Y.mean(axis=0)
    # the kernel matrix is built in the buffer that is factored
    chol = _robust_cholesky(_kernel_matrix(kernel, X, X), noise, kernel.variance,
                            lambda: _kernel_matrix(kernel, X, X))
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


def _posterior_mean_var_batch(m: GpModel, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Z = _query_points(Z, m.dim_latent)
    ks = _kernel_matrix(m.kernel, Z, m.latent_inputs)
    # by scipy's dgemm, points along its first dimension: a point's mean is
    # the same bits at any row of the batch
    means = m.output_means + _alpha_products(ks[None], m.alpha)[..., 0]
    w = solve_triangular(m.chol, ks.T, lower=True)
    var = np.maximum(m.kernel.variance - np.einsum("ij,ij->j", w, w), 0.0)
    return means, var


def posterior_mean_var(m: GpModel, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Predictive mean (D-vector) and the shared per-output variance at z."""
    means, var = _posterior_mean_var_batch(m, np.asarray(z, dtype=float)[None, :])
    return means[0], float(var[0])


def _alpha_products(planes: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """sum_N planes[j, i, N] alpha[N, :] as (n, D, q), by one scipy dgemm."""
    # the points run along dgemm's first dimension: a point's sums are then
    # the same bits in a batch of any size up to a few hundred points
    q, n, big_n = planes.shape
    prod = lapack_blas()[1].dgemm(1.0, planes.reshape(q * n, big_n).T, alpha.T, trans_a=True,
                                  trans_b=True)
    return prod.T.reshape(-1, q, n).transpose(2, 0, 1)


def _jacobian_pass(m: GpModel, Z: np.ndarray, dz: bool) -> tuple[np.ndarray, ...]:
    """Derivative posteriors at n points: means (n, D, q), covs (n, q, q) and,
    with dz, their derivatives in z along a last axis: dmeans (n, D, q, q)
    and dcovs (n, q, q, q), the latter before the PSD clamp of covs.

    With d_a the q planes of differences, G_a = c d_a, Hessian column
    H_c = e d_a d_c + delta_ac c, W = L^-1 G and V = L^-T W = K^-1 G: means =
    G^T alpha, covs = prior - W^T W, dcovs = -(C + C^T) with C = H_c^T V.
    """
    Z = _query_points(Z, m.dim_latent)
    n, q = Z.shape
    d, c, e = _differences(m.kernel, Z, m.latent_inputs, hessian=dz)
    # without dz the differences are not needed again: G in their buffer
    grads = c * d if dz else np.multiply(d, c, out=d)
    means = _alpha_products(grads, m.alpha)
    # W, in grads' buffer: row a n + i of w.T is column a of point i
    solve = dict(lower=True, overwrite_b=True)
    w = solve_triangular(m.chol, grads.reshape(q * n, -1).T, **solve)
    wn = w.T.reshape(q, n, -1).transpose(1, 0, 2)  # (n, q, N)
    covs = _prior_derivative_cov(m.kernel, q) - wn @ wn.transpose(0, 2, 1)
    if not dz:
        return means, _clamp_psd_batch(covs)
    vt = solve_triangular(m.chol, w, trans=1, **solve).T.reshape(q, n, -1).transpose(1, 2, 0)
    dmeans, cross = np.empty(means.shape + (q,)), np.empty((n, q, q, q))
    ed = e * d
    for j in range(q):
        hess = ed * d[j]  # H_j as q planes
        hess[j] += c
        dmeans[..., j] = _alpha_products(hess, m.alpha)
        cross[..., j] = hess.transpose(1, 0, 2) @ vt
    return means, _clamp_psd_batch(covs), dmeans, -(cross + cross.transpose(0, 2, 1, 3))


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


def _log_marginal_terms(
    r2: np.ndarray, Yc: np.ndarray, kernel: Kernel, noise: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Log marginal likelihood at the squared distances r2 of the latents,
    its gradient in (log lengthscale, log variance, log noise), M = alpha
    alpha^T - D K^-1 and the radial coefficient c at r2: the gradient in the
    latents follows from M and c (`_fit_objective`), so a step that moves
    the latents factorizes the kernel matrix once.

    The kernel and c share one exp (rbf), or one sqrt and one exp
    (matern52); r2 is left as it is."""
    gram, c = _kernel_of_r2(kernel, r2, radial=True)
    chol = _robust_cholesky(gram.copy(), noise, kernel.variance, lambda: gram)
    alpha = cho_solve((chol.T, False), Yc)
    lml = _log_marginal(chol, alpha, Yc)
    mmat = _gradient_matrix(chol, alpha)
    # the two full traces, sum(M * (-c r2)) and sum(M * K), in one scratch buffer
    scratch = np.negative(c)
    scratch *= r2
    scratch *= mmat
    trace_ell = float(np.sum(scratch))
    trace_var = float(np.sum(np.multiply(mmat, gram, out=scratch)))
    grad = np.array([0.5 * trace_ell, 0.5 * trace_var, 0.5 * noise * float(np.trace(mmat))])
    return lml, grad, mmat, c


def _fit_objective(params, X, r2, Yc, family) -> tuple[float, np.ndarray]:
    """`_ascend`'s objective and gradient at params = [log theta] with the
    latents X fixed and r2 their squared distances, or at [log theta, X] with
    r2 None: the log marginal likelihood, less |X|^2/2 when X moves. Its own
    function, so its N x N arrays are freed before the next trial factorizes."""
    with np.errstate(over="ignore"):  # an overflow is Kernel's error
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
    gx = w.sum(axis=1)[:, None] * X - lapack_blas()[1].dgemm(1.0, w.T, X, trans_a=True) - X
    return lml - 0.5 * float(np.sum(X * X)), np.concatenate([grad, gx.ravel()])


def _ascend(
    X: np.ndarray,
    Y: np.ndarray,
    k0: Kernel,
    noise0: float,
    steps: int,
    lr: float,
    optimize_latents: bool,
) -> GpModel:
    """`_lbfgs.minimize` on minus `_fit_objective` from k0, noise0 and X, for
    at most steps iterations. The fallback is the steepest-ascent step of
    max-norm lr, lr sign(g), which is Adam's first step. A trial point whose
    Kernel or jitter ladder raises is a failed line-search trial."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if steps < 0 or not noise0 >= 0.0 or not 0.0 < lr < math.inf:
        raise ValueError(f"need steps >= 0, noise >= 0, finite lr > 0; got {steps}, {noise0}, {lr}")
    if steps == 0:
        return make_model(X, Y, k0, noise0)
    Yc = Y - Y.mean(axis=0)
    # fixed latents: their squared distances serve every step
    r2 = None if optimize_latents else _sqdist(X, X)
    params = np.log(np.array([k0.lengthscale, k0.variance, max(noise0, 1e-12)]))
    if optimize_latents:
        params = np.concatenate([params, X.ravel()])

    def negated(x):
        objective, grad = _fit_objective(x, X, r2, Yc, k0.family)
        return -objective, -grad, None

    best = _lbfgs.minimize(negated, params, lambda x, g: -lr * np.sign(g), steps, _lbfgs.TOL,
                           failed=(ValueError, np.linalg.LinAlgError)).x
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

    L-BFGS ascent (`_ascend`) on (log lengthscale, log variance, log noise),
    at most steps iterations; accepted steps never lower the likelihood.
    steps=0 returns the initial hyperparameters unchanged.
    """
    return _ascend(X, Y, k0, noise0, steps, lr, optimize_latents=False)


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

    With optimize_latents the latent coordinates move jointly with the
    hyperparameters, on the posterior (marginal likelihood plus a standard
    normal prior on the latents); by default they stay at the PCA
    initialization.
    """
    return _ascend(pca_latents(Y, q), Y, k0, noise0, steps, lr, optimize_latents)


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
    # one json.dumps: json.dump writes through the pure-Python encoder
    text = json.dumps(doc, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_model(path: str) -> GpModel:
    """Rebuild a model from JSON; the Cholesky factor is recomputed.

    Raises ParseError, its message starting with the path, when a key is
    missing, a value is not a number, latent_inputs and outputs are not
    N x q and N x D matrices with the same N, or `make_model` rejects the
    values (non-finite data, negative noise).
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
    try:
        return make_model(X, Y, kernel, noise)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
