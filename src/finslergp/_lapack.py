"""scipy's LAPACK and BLAS routines, without the scipy.linalg package.

Every routine gp calls on N x N operands lives in one of scipy's two f2py
extension modules, `_flapack` and `_fblas`. `import scipy.linalg` would run
the scipy and scipy.linalg package inits, which load hundreds of modules gp
never calls; `lapack_blas` loads the two extension modules alone, from their
files. `cho_solve` and `solve_triangular` make scipy.linalg's LAPACK calls
for gp, without its input scans. gp imports these two into its own
namespace and calls them by those names, so rebinding gp's names (as a
tracer does) sees every solve. `finite_cholesky` factors, and
`gradient_matrix` inverts and updates, in the caller's N x N buffer.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


@functools.cache
def lapack_blas() -> tuple:
    """scipy's LAPACK and BLAS extension modules, (_flapack, _fblas).

    A module already in sys.modules (scipy.linalg imported it) is taken from
    there. Otherwise it is loaded from its file in the linalg directory of
    the scipy distribution and registered under its full name, so neither
    scipy's nor scipy.linalg's package init runs, and a later
    `import scipy.linalg` takes the same module. A missing file raises an
    ImportError that names it."""
    modules = []
    for name in ("scipy.linalg._flapack", "scipy.linalg._fblas"):
        if name not in sys.modules:
            scipy = importlib.util.find_spec("scipy")
            if scipy is None:
                raise ImportError(f"{name} needs scipy, which is not installed", name=name)
            linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
            finder = importlib.machinery.FileFinder(
                linalg, (importlib.machinery.ExtensionFileLoader,
                         importlib.machinery.EXTENSION_SUFFIXES))
            spec = finder.find_spec(name)
            if spec is None:
                raise ImportError(f"no extension module file for {name} in {linalg}", name=name)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        modules.append(sys.modules[name])
    return tuple(modules)


def _solved(x: np.ndarray, info: int, routine: str) -> np.ndarray:
    """x, unless LAPACK's info reports a zero pivot (LinAlgError) or an
    illegal argument (ValueError)."""
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    return x


def cho_solve(c_and_lower, b, overwrite_b=False):
    """x with A x = b, for c the lower (lower True) or upper Cholesky factor
    of A: scipy.linalg.cho_solve's dpotrs call on float64 operands, without
    its input scans."""
    c, lower = c_and_lower
    x, info = lapack_blas()[0].dpotrs(c, b, lower=lower, overwrite_b=overwrite_b)
    return _solved(x, info, "dpotrs")


def solve_triangular(a, b, trans=0, lower=False, overwrite_b=False):
    """x with a x = b (trans 0) or a^T x = b (trans 1), reading a's lower or
    upper triangle: scipy.linalg.solve_triangular's dtrtrs call on float64
    operands, without its input scans. As in scipy, an a not in Fortran
    order is passed as its transpose, with lower and trans flipped."""
    trtrs = lapack_blas()[0].dtrtrs
    if a.flags.f_contiguous:
        x, info = trtrs(a, b, overwrite_b=overwrite_b, lower=lower, trans=trans)
    else:
        x, info = trtrs(a.T, b, overwrite_b=overwrite_b, lower=not lower, trans=not trans)
    return _solved(x, info, "dtrtrs")


def finite_cholesky(kmat: np.ndarray) -> np.ndarray | None:
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


def gradient_matrix(chol: np.ndarray, alpha: np.ndarray) -> np.ndarray:
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
