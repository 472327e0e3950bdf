"""Numerically stable special functions for the closed-form expected norm.

Log-gamma ratios and the confluent hypergeometric function 1F1 with its
derivative, in the regime the expected-norm formula needs: first parameter
a in [-3, 0], argument x <= 0 (and the transformed positive-argument series).
The module needs numpy and the standard library only: the log-gamma ratios
take `math.lgamma`.
`kummer_1f1` takes scalars; `kummer_1f1_array` evaluates it for an array of
arguments, with one b for all of them or one b per element, by the same
floating-point operations per element. In arrays it sums only the
transformed series with b - a > 0, whose terms are all nonnegative: the
whole documented regime a in [-3, 0], and the derivative's (1/2, b + 1).
Such a series stops at its first term below 1e-15 of its partial sum, one
comparison per element. While at least `_LOCKSTEP_MIN` series are still
running, one numpy step adds the next term to all of them (the lockstep).
Fewer series are summed in blocks: the next 32, then 64, terms of every
running series at once, each row's terms and partial sums taken by
sequential accumulates and cut at its first converged term (the block
tail). Every other element goes through `kummer_1f1`. Both functions scale
the transformed series by numpy's exp, so the two agree bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "log_gamma_ratio",
    "kummer_1f1",
    "kummer_1f1_array",
    "kummer_1f1_derivative",
]

_REL_TOL = 1e-15
_MAX_TERMS = 10_000
# e^x underflows past ~-745; hand over to the asymptotic limit a bit early.
_ASYMPTOTIC_CUTOFF = -700.0
# Between this x and the cutoff the transformed sum is summed directly only
# while its estimated size stays below e^_LOG_SUM_LIMIT (doubles end at
# e^709.78): near a = -3 it passes the largest double before x = -700. For
# a = -1/2, b >= 1/2 and x >= -700 the estimate stays below e^704.
_SIZE_CHECK_BELOW = -600.0
_LOG_SUM_LIMIT = 705.0
# fewest running series for which one numpy step per term beats summing
# them in blocks of terms
_LOCKSTEP_MIN = 256
# terms per block of the block tail: the first block holds the whole series
# of a shallow argument (x above about -5); the later ones are wider, so an
# argument near -600, whose series has about 800 terms, takes fewer passes
_FIRST_BLOCK = 32
_BLOCK = 64


class ConvergenceError(RuntimeError):
    """Raised when a series does not converge within the term budget."""


def log_gamma_ratio(num: float, den: float) -> float:
    """Return ln Gamma(num) - ln Gamma(den) for positive arguments.

    Works in log space so ratios like Gamma(D/2 + 1/2) / Gamma(D/2) stay
    finite for large D, where Gamma itself overflows double precision. The
    standard library's lgamma is as accurate here as scipy's gammaln: for
    Gamma(D/2 + 1/2) / Gamma(D/2) with D up to 2048, both stay within 6e-13
    relative of mpmath, the cancellation of two log-gammas near 7e3.
    """
    if num <= 0.0 or den <= 0.0:
        raise ValueError(f"log_gamma_ratio needs positive arguments, got ({num}, {den})")
    return math.lgamma(num) - math.lgamma(den)


def _series_1f1(a: float, b: float, x: float) -> float:
    # Plain power series. Consecutive terms are related by
    # t_{k+1} = t_k * (a+k)/(b+k) * x/(k+1), so no Pochhammer overflow.
    term = 1.0
    total = 1.0
    for k in range(_MAX_TERMS):
        term *= (a + k) / (b + k) * x / (k + 1)
        if term == 0.0:
            # a hit a non-positive integer: the series terminates exactly
            return total
        total += term
        if abs(term) < _REL_TOL * abs(total):
            return total
    raise ConvergenceError(f"1F1 series did not converge for a={a}, b={b}, x={x}")


def _asymptotic_1f1(a: float, b: float, x: float) -> tuple[float, bool]:
    # Large negative argument expansion
    #   1F1(a, b, x) ~ Gamma(b)/Gamma(b-a) * (-x)^(-a)
    #                  * sum_s (a)_s (a-b+1)_s / (s! (-x)^s),
    # summed to its smallest term. The flag reports whether that smallest
    # term is negligible; if not, the expansion is unusable here (|x| not
    # large against b^2) and the caller must use the log-space series.
    y = -x
    term = 1.0
    total = 1.0
    smallest = 1.0
    for k in range(200):
        term *= (a + k) * (a - b + 1.0 + k) / ((k + 1.0) * y)
        if abs(term) >= smallest:
            break
        total += term
        smallest = abs(term)
        if smallest < _REL_TOL * abs(total):
            break
    value = math.exp(log_gamma_ratio(b, b - a) - a * math.log(y)) * total
    return value, smallest <= 1e-13 * abs(total)


def _log_series_1f1(a: float, b: float, x: float) -> float:
    # e^x * 1F1(b-a, b, -x) for x < 0, where the transformed series has
    # positive terms but a peak near e^(-x) that overflows doubles; the
    # running sum is rescaled and the exponent carried separately.
    y = -x
    aa = b - a
    term = 1.0
    total = 1.0
    shift = 0.0
    budget = _MAX_TERMS + int(3.0 * y)
    for k in range(budget):
        term *= (aa + k) / (b + k) * y / (k + 1)
        total += term
        if term < _REL_TOL * total:
            return math.exp(math.log(total) + shift + x)
        if total > 1e280:
            total *= 1e-280
            term *= 1e-280
            shift += 280.0 * math.log(10.0)
    raise ConvergenceError(f"1F1 series did not converge for a={a}, b={b}, x={x}")


@functools.lru_cache(maxsize=1024)
def _deep_below(a: float, b: float) -> float:
    # The x below which kummer_1f1(a, b, x) leaves the direct transformed
    # series: the cutoff, or up to -600 the x where the transformed sum
    # 1F1(b - a, b, y), y = -x, estimated from its large-y limit
    # Gamma(b)/Gamma(b - a) e^y (b + y)^(-a), reaches e^_LOG_SUM_LIMIT. The
    # estimate grows with y for a < 0; for a >= 0 the sum is at most e^y.
    if a >= 0.0:
        return _ASYMPTOTIC_CUTOFF
    lgr = log_gamma_ratio(b, b - a)

    def too_large(y):
        return y - a * math.log(b + y) + lgr > _LOG_SUM_LIMIT

    lo, hi = -_SIZE_CHECK_BELOW, -_ASYMPTOTIC_CUTOFF
    if not too_large(hi):
        return _ASYMPTOTIC_CUTOFF
    if too_large(lo):
        return _SIZE_CHECK_BELOW
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if too_large(mid) else (mid, hi)
    return -hi


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric function of the first kind, 1F1(a; b; x).

    Parameters
    ----------
    a, b, x : float
        Series parameters; b must be positive. Accuracy is guaranteed for
        a in [-3, 0] with x <= 0, the regime of the expected-norm formula.

    Notes
    -----
    Negative arguments are always routed through the transformation
    1F1(a, b, x) = e^x 1F1(b - a, b, -x), whose series has positive terms
    when b - a > 0. The raw alternating series loses all precision once
    -x grows past a few tens. The series stops when the next term falls
    below 1e-15 of the partial sum. Past x = -700 a naive e^x underflows,
    so the large-argument expansion takes over, falling back to a log-space
    rescaled series in the corner where |x| is not large against b^2 and
    the expansion diverges too early. The same branch starts above -700,
    but not above -600, where the transformed sum, estimated from its
    large-argument limit, would exceed e^705 (near a = -3 it would overflow
    doubles before x = -700).
    """
    if b <= 0.0:
        raise ValueError(f"kummer_1f1 needs b > 0, got b={b}")
    if x == 0.0:
        return 1.0
    if x < _SIZE_CHECK_BELOW and x < _deep_below(a, b):
        value, accurate = _asymptotic_1f1(a, b, x)
        if accurate:
            return value
        return _log_series_1f1(a, b, x)
    if x < 0.0:
        return float(np.exp(x)) * _series_1f1(b - a, b, -x)
    return _series_1f1(a, b, x)


def _series_1f1_lockstep(a, b, x: np.ndarray) -> np.ndarray:
    # _series_1f1(a, b, x[i]) for every i, with its rounding and stop rule
    # per element, for a > 0, b > 0 and x >= 0: every term is nonnegative,
    # so the scalar loop's tests (term == 0, or |term| < 1e-15 |sum|) stop
    # at the first term < 1e-15 * sum, the one test taken here. The
    # lockstep, then the block tail (see the module docstring). a and b are
    # floats, or arrays of x's shape holding each element's own parameters.
    # In a block, multiply.accumulate continues the carried term and
    # add.accumulate the carried sum, both left to right, so each term and
    # partial sum is the one the scalar loop reaches.
    per_element = np.ndim(b) > 0
    total = np.empty(x.size)
    active = np.arange(x.size)
    term = np.ones(x.size)
    run = np.ones(x.size)
    k = 0
    while active.size >= _LOCKSTEP_MIN and k < _MAX_TERMS:
        term *= (a + k) / (b + k) * x / (k + 1)
        run += term
        k += 1
        done = term < _REL_TOL * run
        if done.any():
            total[active[done]] = run[done]
            keep = ~done
            active, x, term, run = active[keep], x[keep], term[keep], run[keep]
            if per_element:
                a, b = a[keep], b[keep]
    width = _FIRST_BLOCK
    while active.size:
        if k >= _MAX_TERMS:
            first = (a[0], b[0]) if per_element else (a, b)
            raise ConvergenceError(
                f"1F1 series did not converge for a={first[0]}, b={first[1]}, x={x[0]}"
            )
        ks = np.arange(k, min(k + width, _MAX_TERMS), dtype=float)
        # built in place, so that at most three (n, width + 1) arrays are live
        ca, cb = (a[:, None], b[:, None]) if per_element else (a, b)
        terms = (ca + ks) / (cb + ks) * x[:, None]
        terms /= ks + 1.0
        terms[:, 0] *= term
        np.multiply.accumulate(terms, axis=1, out=terms)
        sums = np.empty((x.size, ks.size + 1))
        sums[:, 0] = run
        sums[:, 1:] = terms
        sums = np.add.accumulate(sums, axis=1, out=sums)[:, 1:]
        stop = terms < _REL_TOL * sums
        done = stop.any(axis=1)
        rows = np.nonzero(done)[0]
        total[active[rows]] = sums[rows, stop[rows].argmax(axis=1)]
        keep = ~done
        active, x, term, run = active[keep], x[keep], terms[keep, -1], sums[keep, -1]
        if per_element:
            a, b = a[keep], b[keep]
        k += ks.size
        width = _BLOCK
    return total


def kummer_1f1_array(a: float, b, x) -> np.ndarray:
    """`kummer_1f1(a, b, x)` for every element of the array x.

    b is one float for every element, or an array of x's shape giving each
    element its own b (`metric.norms_sq` passes one D/2 per point when its
    points differ in D). Either way each element's result is
    `kummer_1f1(a, b_i, x_i)` bit for bit.

    Elements with x <= 0 and b - a > 0 that `kummer_1f1` sums directly
    (x >= -700, or closer to 0 for the (a, b) whose transformed sum would
    exceed e^705 there; both compare with the same cached cutoff) are
    summed together through the same transformed series as the scalar
    function. Its terms are nonnegative, so each element stops at its first
    term below 1e-15 of its partial sum, the term the scalar loop stops at:
    one term per numpy step for all of them while at least `_LOCKSTEP_MIN`
    are unconverged, then blocks of 32 and 64 terms per remaining element,
    whose terms and partial sums come from sequential accumulates. Each
    term and partial sum is rounded as in the scalar loop (with a
    per-element b, the term ratio is the same division taken elementwise)
    and both forms take e^x from numpy's exp, so each result equals the
    scalar one bit for bit. Every other element (x past the asymptotic
    cutoff, a transformed sum estimated too large, x > 0, or b <= a) goes
    through `kummer_1f1` itself.
    """
    a = float(a)
    x = np.asarray(x, dtype=float)
    if np.ndim(b) == 0:
        b = float(b)
        if b <= 0.0:
            raise ValueError(f"kummer_1f1_array needs b > 0, got b={b}")
        cutoff = _deep_below(a, b)
    else:
        b = np.broadcast_to(np.asarray(b, dtype=float), x.shape)
        if not np.all(b > 0.0):
            raise ValueError("kummer_1f1_array needs every b > 0")
        values, which = np.unique(b, return_inverse=True)
        cutoff = np.array([_deep_below(a, float(v)) for v in values])[which.reshape(x.shape)]
    out = np.empty(x.shape)
    series = (x >= cutoff) & (x <= 0.0) & (b - a > 0.0)
    if not series.all():
        for i in zip(*np.nonzero(~series)):
            out[i] = kummer_1f1(a, b if isinstance(b, float) else float(b[i]), float(x[i]))
    xs = x[series]
    bs = b if isinstance(b, float) else b[series]
    out[series] = np.exp(xs) * _series_1f1_lockstep(bs - a, bs, -xs)
    return out


def kummer_1f1_derivative(a: float, b: float, x: float) -> float:
    """Derivative of 1F1 in its argument: (a/b) * 1F1(a + 1, b + 1, x)."""
    return (a / b) * kummer_1f1(a + 1.0, b + 1.0, x)
