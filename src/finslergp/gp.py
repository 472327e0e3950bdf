"""Gaussian-process regression with Jacobian posteriors.

A GP maps latent coordinates to data space; its derivative is again a GP,
so the Jacobian at a latent point has a Gaussian posterior with one shared
q x q covariance across all D output dimensions. It is computed in closed
form from the kernel's derivatives; the hyperparameters are fitted to the
marginal likelihood by `_lbfgs`. The posterior type, `JacobianPosterior`,
its PSD clamp and the point check `_query_points` live in `fields`, which
the norm layer imports without gp: only the code that fits, loads or
queries a GP imports this module, when it runs.

Linear algebra on N x N operands or results (N training points) goes
through scipy's BLAS and LAPACK only: `dpotrf`, `dpotri`, `dsyrk`, `dgemm`
and the solves `cho_solve` and `solve_triangular`. numpy's OpenBLAS keeps a
thread pool of its own, whose spinning workers take the cores from scipy's
(README, Timing). N x N matrices are formed in place a row block of
`_BLOCK_ENTRIES` entries at a time, so no temporary is larger than a block.
`make_model` forms the kernel in one N x N buffer and factors it there; the
jitter ladder refills that buffer. A fit allocates one `_workspace`, an
N x N buffer and two row blocks, which every L-BFGS evaluation reuses: the
kernel's lower triangle is formed and factored in the buffer, which then
holds M = alpha alpha^T - D K^-1. As K alpha = Yc, the variance trace is
sum(alpha Yc) - D N - s tr(M), s the noise and any jitter; a second
row-block pass forms the squared distances and the radial coefficient c
again for the lengthscale trace and, for free latents, M * c (README,
Timing, gives the fit's time and resident size).

Those routines come from scipy's two extension modules `_flapack` and
`_fblas`, which `_lapack.lapack_blas` loads at a command's first GP call
without the scipy or scipy.linalg package init: a command that never touches
a GP (`generate`, `verify`) loads no scipy module, and one that does loads
these two alone. The two solves are `_lapack`'s `cho_solve` and
`solve_triangular`, which gp's code calls by those names in its own
namespace: rebinding them there (as a tracer does) sees every solve.

The Jacobian posteriors at n points are one pass, `_jacobian_pass`, which
takes the points in blocks of `_BLOCK_ENTRIES` kernel entries (65 points at
N = 500), so its working memory does not grow with n. In a block the
kernel gradients against the training inputs are q planes of shape
(block, N), formed from the difference planes, whose squared distances hold
the radial coefficient (without the derivative in z, the gradients
overwrite the differences), and solved against the factor in one triangular
solve of q columns per point; the derivative in z adds a second solve of q
columns (2q per point) and contracts the kernel Hessian with it, so no
Hessian column is solved. A point's means are the same bits in any block;
its covariance can move in the last bits with the number of columns that
share its solve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _lbfgs
from ._lapack import cho_solve, lapack_blas, solve_triangular
from .data import ParseError, _read_json_object
from .fields import _clamp_psd_batch, _query_points

__all__ = [
    "RBF",
    "MATERN52",
    "Kernel",
    "GpModel",
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

# kernel entries (8 bytes each) per block: the rows `_kernel_matrix` and a
# fit evaluation form at a time and the query points of one `_jacobian_pass`
# block (65 points against 500 training inputs)
_BLOCK_ENTRIES = 32768

# what load_model needs from a model file; output_means is recomputed
_MODEL_KEYS = ("kernel", "noise", "latent_inputs", "outputs")
_KERNEL_KEYS = ("family", "lengthscale", "variance")


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance with one lengthscale and one variance, whose
    constants l^2, sigma^2/l^2 (and Matern's sigma^2 u^4/3) are finite, > 0."""

    family: str
    lengthscale: float
    variance: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {_FAMILIES}")
        if not (0.0 < self.lengthscale < math.inf and 0.0 < self.variance < math.inf):
            raise ValueError("lengthscale and variance must be finite and positive")
        try:
            constants = [self.lengthscale**2, self.variance / self.lengthscale**2]
            if self.family == MATERN52:
                constants.append(self.variance * (math.sqrt(5.0) / self.lengthscale)**4 / 3.0)
        except (OverflowError, ZeroDivisionError):
            constants = [math.inf]
        if not all(0.0 < c < math.inf for c in constants):
            raise ValueError(f"lengthscale {self.lengthscale:g} with variance {self.variance:g} "
                             "overflows or underflows the kernel's constants")


# ---------------------------------------------------------------------------
# kernel algebra


def _sqdist(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Squared distances between the rows of a and b, (n, m), summed one
    coordinate at a time without building the (n, m, q) differences; for
    q <= 2 bit-identical to an einsum over those differences. With out they
    are formed in its buffer."""
    # contiguous coordinate rows broadcast faster than strided columns
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    diff = at[0][:, None] - bt[0]
    r2 = np.multiply(diff, diff, out=out)
    for j in range(1, len(at)):
        np.subtract(at[j][:, None], bt[j], out=diff)
        diff *= diff
        r2 += diff
    return r2


def _row_blocks(n: int, m: int) -> list:
    """The rows of an n x m array as slices of `_BLOCK_ENTRIES` entries."""
    rows = max(1, _BLOCK_ENTRIES // m)
    return [slice(i, i + rows) for i in range(0, n, rows)]


def _kernel_matrix(k: Kernel, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """k between the rows of a and b, formed a block of `_BLOCK_ENTRIES`
    entries at a time from that block's squared distances, into out (fresh
    when None): the result is the one n x m array."""
    out = np.empty((len(a), len(b))) if out is None else out
    for rows in _row_blocks(len(a), len(b)):
        _kernel_of_r2(k, _sqdist(a[rows], b), out=out[rows])
    return out


def _workspace(n: int) -> tuple:
    """A fit's N x N buffer and two row blocks of `_BLOCK_ENTRIES` entries."""
    return np.empty((n, n)), *np.empty((2, min(n, _BLOCK_ENTRIES // n) or 1, n))


# The kernel and its radial coefficients below are evaluated one operation
# at a time into the out buffer, in the order and with the operands of the
# formulas in their docstrings, so an in-place result has the same bits as
# the formula evaluated with temporaries.


def _kernel_of_r2(k: Kernel, r2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """k at squared distances r2, in out's buffer when given (out may be r2),
    RBF sigma^2 exp(-r^2/(2 l^2)), Matern-5/2 with u = sqrt(5)/l
    sigma^2 (1 + u r + (u r)^2/3) exp(-u r)."""
    if k.family == RBF:
        kr = np.multiply(r2, -0.5, out=out)
        kr /= k.lengthscale**2
        np.exp(kr, out=kr)
        kr *= k.variance
        return kr
    u = math.sqrt(5.0) / k.lengthscale
    kr = np.sqrt(r2, out=out)
    kr *= u
    decay = np.negative(kr)
    np.exp(decay, out=decay)
    linear = np.add(kr, 1.0)
    # (u r)^2/3 in kr's buffer, then (1 + u r) + (u r)^2/3 (the sum is exact
    # in either operand order): no array of its own for the polynomial
    np.square(kr, out=kr)
    kr /= 3.0
    kr += linear
    kr *= k.variance
    kr *= decay
    return kr


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
    """Lower Cholesky factor of the symmetric, C-ordered kmat, of which it
    reads the lower triangle alone, computed in kmat's own buffer, or None
    if LAPACK fails."""
    # kmat.T is the same symmetric matrix in Fortran order, so dpotrf takes
    # it without a copy; its upper factor U = L^T, read in C order, is L.
    # dpotrf reads that triangle alone and zeroes the other (clean=1), so
    # whatever the other held before is not seen by the check below.
    # LAPACK can report success yet emit non-finite factors (NaN/inf input);
    # treat those as failures so they reach the jitter ladder. Every entry is
    # checked, a row block of `_BLOCK_ENTRIES` at a time: no N x N mask
    upper, info = lapack_blas()[0].dpotrf(kmat.T, lower=False, overwrite_a=True)
    lower = upper.T
    rows = max(1, _BLOCK_ENTRIES // len(lower))
    if info != 0 or not all(np.isfinite(lower[i : i + rows]).all()
                            for i in range(0, len(lower), rows)):
        return None
    return lower


def _robust_cholesky(kmat: np.ndarray, noise: float, variance: float, rebuild) -> tuple:
    """Lower Cholesky factor of K + noise I + jitter I, and the jitter, for
    the kernel matrix K in the lower triangle of the C-ordered kmat, factored
    in kmat's buffer. rebuild() writes K there again after a failed
    factorization; the jitter is 0 unless one failed."""
    diag = kmat.reshape(-1)[:: len(kmat) + 1]
    diag += noise
    chol = _finite_cholesky(kmat)
    if chol is not None:
        return chol, 0.0
    # jitter ladder: 1e-8 * variance, escalated tenfold at most five times;
    # each attempt rebuilds the buffer the failed one overwrote
    jitter = _JITTER0 * variance
    with np.errstate(invalid="ignore"):
        for _ in range(_JITTER_ESCALATIONS):
            rebuild()
            diag += noise
            diag += jitter
            chol = _finite_cholesky(kmat)
            if chol is not None:
                return chol, jitter
            jitter *= 10.0
    if math.isfinite(jitter):
        detail = f" even with jitter up to {jitter / 10:.1e}"
    else:
        detail = " (non-finite kernel matrix)"
    raise np.linalg.LinAlgError(f"kernel matrix factorization failed{detail}")


def make_model(X: np.ndarray, Y: np.ndarray, kernel: Kernel, noise: float) -> GpModel:
    """Assemble a GpModel: center outputs, factor the kernel matrix once."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(
            "latent_inputs and outputs must be N x q and N x D matrices "
            f"with the same N, got shapes {X.shape} and {Y.shape}"
        )
    if X.shape[0] < 2:
        raise ValueError("need at least two training points")
    for name, values in (("latent_inputs", X), ("outputs", Y)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    if not 0.0 <= noise < math.inf:
        raise ValueError("noise must be finite and nonnegative")
    means = Y.mean(axis=0)
    # the kernel matrix is built, and rebuilt, in the buffer that is factored
    kmat = _kernel_matrix(kernel, X, X)
    chol, _ = _robust_cholesky(kmat, noise, kernel.variance,
                               lambda: _kernel_matrix(kernel, X, X, kmat))
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


def _alpha_products(planes: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """sum_N planes[j, i, N] alpha[N, :] as (n, D, q), by one dgemm."""
    # the points run along dgemm's first dimension: a point's sums are then
    # the same bits in a batch of any size up to a few hundred points
    q, n, big_n = planes.shape
    prod = lapack_blas()[1].dgemm(1.0, planes.reshape(q * n, big_n).T, alpha.T, trans_a=True,
                                  trans_b=True)
    return prod.T.reshape(-1, q, n).transpose(2, 0, 1)


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


def _jacobian_pass(m: GpModel, Z: np.ndarray, dz: bool) -> tuple[np.ndarray, ...]:
    """Derivative posteriors at n points: means (n, D, q), covs (n, q, q) and,
    with dz, their derivatives in z along a last axis: dmeans (n, D, q, q)
    and dcovs (n, q, q, q), the latter before the PSD clamp of covs.

    With d_a the q planes of differences, G_a = c d_a, Hessian column
    H_c = e d_a d_c + delta_ac c, W = L^-1 G and V = L^-T W = K^-1 G: means =
    G^T alpha, covs = prior - W^T W, dcovs = -(C + C^T) with C = H_c^T V.
    More points than a block of `_BLOCK_ENTRIES` kernel entries go through
    the pass a block at a time, each block's covs clamped on their own, so
    its working memory does not grow with n.
    """
    Z = _query_points(Z, m.dim_latent)
    n, q = Z.shape
    blocks = _row_blocks(n, len(m.latent_inputs))
    if len(blocks) > 1:
        return tuple(map(np.concatenate, zip(*(_jacobian_pass(m, Z[rows], dz) for rows in blocks))))
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
    """Log marginal likelihood from the lower Cholesky factor of K, alpha =
    K^-1 yc and the centred outputs yc."""
    n, d = yc.shape
    return (
        -0.5 * float(np.sum(yc * alpha))
        - d * float(np.sum(np.log(np.diag(chol))))
        - 0.5 * n * d * math.log(2.0 * math.pi)
    )


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


def _latent_gradient(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_m W[n, m] (x_n - x_m) for the rows x_n of x, with W = M * c
    symmetric N x N, by one dgemm; W's diagonal is zeroed in its buffer,
    and W.T is W in Fortran order for dgemm."""
    np.fill_diagonal(w, 0.0)
    return w.sum(axis=1)[:, None] * x - lapack_blas()[1].dgemm(1.0, w.T, x, trans_a=True)


def _log_marginal_terms(
    X: np.ndarray, Yc: np.ndarray, kernel: Kernel, noise: float, latents: bool = False, work=None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log marginal likelihood of the latents X, its gradient in
    (log lengthscale, log variance, log noise), and M = alpha alpha^T -
    D K^-1, or with latents M * c for the latent gradient (`_fit_objective`),
    c the radial coefficient at X's squared distances. work is a
    `_workspace` (fresh when None), used as the module docstring says."""
    buf, r2buf, cbuf = _workspace(len(X)) if work is None else work
    blocks = _row_blocks(len(X), len(X))

    def fill():
        # each row block against the points up to its last row
        for rows in blocks:
            xr = X[rows]
            r2 = _sqdist(xr, X[: rows.stop], r2buf[: len(xr), : rows.stop])
            _kernel_of_r2(kernel, r2, out=buf[rows, : rows.stop])

    fill()
    chol, jitter = _robust_cholesky(buf, noise, kernel.variance, fill)
    alpha = cho_solve((chol.T, False), Yc)
    lml = _log_marginal(chol, alpha, Yc)
    mmat = _gradient_matrix(chol, alpha)
    trace_m = float(np.trace(mmat))
    trace_var = float(np.sum(alpha * Yc)) - Yc.size - (noise + jitter) * trace_m
    trace_ell = 0.0
    for rows in blocks:
        xr = X[rows]
        r2 = _sqdist(xr, X, r2buf[: len(xr)])
        c = _radial_coefficients(kernel, r2, hessian=False, out=cbuf[: len(xr)])[0]
        # M * (-c r2) as -((r2 c) M), the same bits
        r2 *= c
        r2 *= mmat[rows]
        trace_ell -= float(np.sum(r2))
        if latents:
            mmat[rows] *= c
    grad = np.array([0.5 * trace_ell, 0.5 * trace_var, 0.5 * noise * trace_m])
    return lml, grad, mmat


def _fit_objective(params, X, Yc, family, work=None) -> tuple[float, np.ndarray]:
    """`_ascend`'s objective and gradient at params = [log theta] with the
    latents X fixed, or at [log theta, X] with the latents free: the log
    marginal likelihood, less |X|^2/2 when X moves. work is the fit's
    `_workspace`, fresh when None."""
    with np.errstate(over="ignore"):  # an overflow is Kernel's error
        ell, var, noise = np.exp(params[:3])
    kernel = Kernel(family, ell, var)
    latents = len(params) > 3
    if latents:
        X = params[3:].reshape(X.shape)
    lml, grad, mc = _log_marginal_terms(X, Yc, kernel, noise, latents, work)
    if not latents:
        return lml, grad
    # d lml / d x_n = sum_m M[n, m] grad_z1 k(x_n, x_m), using symmetry of M
    gx = _latent_gradient(mc, X) - X
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
    Kernel or jitter ladder raises is a failed line-search trial. Every
    evaluation writes into one `_workspace` of one N x N buffer and two row
    blocks, freed before the fitted model is built."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if steps < 0 or not noise0 >= 0.0 or not 0.0 < lr < math.inf:
        raise ValueError(f"need steps >= 0, noise >= 0, finite lr > 0; got {steps}, {noise0}, {lr}")
    if steps == 0:
        return make_model(X, Y, k0, noise0)
    Yc = Y - Y.mean(axis=0)
    work = _workspace(len(X))
    params = np.log(np.array([k0.lengthscale, k0.variance, max(noise0, 1e-12)]))
    if optimize_latents:
        params = np.concatenate([params, X.ravel()])

    def negated(x):
        objective, grad = _fit_objective(x, X, Yc, k0.family, work)
        return -objective, -grad, None

    best = _lbfgs.minimize(negated, params, lambda x, g: -lr * np.sign(g), steps, _lbfgs.TOL,
                           failed=(ValueError, np.linalg.LinAlgError)).x
    work = None  # freed before make_model builds the kernel once more
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
    if not np.all(np.isfinite(Y)):
        raise ValueError("outputs must be finite")
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

    Raises ParseError, its message starting with the path, when the file is
    not JSON, a key is missing, a value is not a number, `Kernel` rejects
    the kernel, or `make_model` rejects the values (latent_inputs and
    outputs not N x q and N x D matrices with the same N, non-finite data,
    negative noise).
    """
    doc = _read_json_object(path, "model file")
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
    try:
        return make_model(X, Y, kernel, noise)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
