"""Numerically stable special functions for the closed-form expected norm.

Log-gamma ratios and the confluent hypergeometric function 1F1 with its
derivative, in the regime the expected-norm formula needs: first parameter
a in [-3, 0], argument x <= 0 (and the transformed positive-argument series).
The module needs numpy and the standard library only.

`log_gamma_ratio` takes `math.lgamma` while either argument is below 16.
When both are at least 16 it sums the difference of two Stirling series
instead, to a few ulps of the ratio: for Gamma(D/2 + 1/2) / Gamma(D/2) at
D = 2048 two lgamma values near 6e3 cancel to 3.5e-13 relative.

1F1(a, b, x) has four regimes, split where each stops being accurate or
cheap:
- The Gauss-Hermite regime, a = -1/2, b >= 16 and -3b <= x < 0: the
  Finsler norm at D >= 32, whose argument -omega/2 grows with D. A fixed
  80-point rule gives 1F1 to within 3e-16 of mpmath from 40 expm1 values
  per element, whatever b and x, where the series needs about -x terms
  and loses accuracy as they grow (8.4e-15 relative at b = 256,
  x = -640). Below b = 16 the rule loses digits (5e-14 at b = 1.5), and
  past x = -3b its integrand narrows under the rule's nodes (1e-11 at
  x = -6b).
- The transformed series e^x 1F1(b - a, b, -x) for the other x in
  [-700, 0): its terms are positive when b - a > 0, where the raw
  alternating series loses all precision once -x grows past a few tens.
- Past x = -700 e^x underflows: the large-argument expansion, or a
  log-space rescaled series where that expansion diverges too early.
  Near a = -3 the transformed sum would overflow doubles first, so there
  the branch starts up to x = -600.
- The plain series for x > 0.

`kummer_1f1` takes scalars; `kummer_1f1_array` evaluates it for an array of
arguments, with one b for all of them or one b per element, by the same
floating-point operations per element. It evaluates the Gauss-Hermite
regime in blocks of elements: each row of 40 expm1 values is summed in a
fixed pairwise order, the same for every row. Of the series it sums only
the transformed ones with b - a > 0, whose terms are all nonnegative: the
whole documented regime a in [-3, 0], and the derivative's (1/2, b + 1).
Such a series stops at its first term below 1e-15 of its partial sum, one
comparison per element. While at least `_LOCKSTEP_MIN` series are still
running, one numpy step adds the next term to all of them (the lockstep).
Fewer series are summed in blocks: the next 32, then 64, terms of every
running series at once, each row's terms and partial sums taken by
sequential accumulates and cut at its first converged term (the block
tail). Every other element goes through `kummer_1f1`. Both functions take
numpy's exp and expm1, and the scalar one evaluates the Gauss-Hermite
regime as an array of one element, so the two agree bit for bit.
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
# The Gauss-Hermite regime (module docstring): a = -1/2, b >= _QUAD_MIN_B and
# -_QUAD_MAX_Y * b <= x < 0
_QUAD_MIN_B = 16.0
_QUAD_MAX_Y = 3.0
# elements times nodes per block of the Gauss-Hermite sum, the size of
# metric's norms_sq blocks
_QUAD_BLOCK_VALUES = 16384
# The 40 positive nodes x_j of the 80-point Gauss-Hermite rule (weight
# e^(-x^2) on the whole line) with their weights w_j, each the double nearest
# the exact value; the other 40 nodes are their negatives, with the same
# weights. tests/oracles.py regenerates the table.
_HERMITE_80 = np.array([
    (0.1237968631731321, 0.24383585380721184),
    (0.37143774948304437, 0.21577494627433047),
    (0.6192203496275672, 0.16893796927590193),
    (0.8672399227039753, 0.11698073380429921),
    (1.115592914603349, 0.0716007476918434),
    (1.3643774570540068, 0.03870859991483798),
    (1.6136938918510608, 0.018465751154427886),
    (1.8636453287449286, 0.007764039405399641),
    (2.11433824650701, 0.0028731975330897244),
    (2.365883148074225, 0.0009343176869611769),
    (2.618395282471784, 0.0002664778866933508),
    (2.8719954485287333, 6.65174124181529e-05),
    (3.1268108983731295, 1.4496444191129675e-05),
    (3.3829763625124016, 2.750724627401243e-06),
    (3.640635223227209, 4.530535565861302e-07),
    (3.899940869387389, 6.45446295011964e-08),
    (4.161058274125836, 7.922923289150255e-09),
    (4.424165847765185, 8.343055926086711e-10),
    (4.689457632952814, 7.499719914658274e-11),
    (4.9571459285134285, 5.7232797185020064e-12),
    (5.227464455100677, 3.6848498201591205e-13),
    (5.500672212315156, 1.9875208346984806e-14),
    (5.77705822806157, 8.909461040666217e-16),
    (6.056947473451028, 3.289162014364574e-17),
    (6.340708321329985, 9.896528989620099e-19),
    (6.628762080857601, 2.3978402756178914e-20),
    (6.921595372925818, 4.613471074553933e-22),
    (7.219776469758925, 6.93411981952888e-24),
    (7.523977290806868, 7.985187198173173e-26),
    (7.835003678329289, 6.883457043633753e-28),
    (8.153838157463458, 4.317817343021971e-30),
    (8.481702187321574, 1.902990610031916e-32),
    (8.820150128661053, 5.63719277947725e-35),
    (9.171217478726483, 1.059514692827753e-37),
    (9.53766791630206, 1.1692076998197468e-40),
    (9.923435114569244, 6.792433016154535e-44),
    (10.33449103953837, 1.7642057043388967e-47),
    (10.780796472469154, 1.5671564937749462e-51),
    (11.28169416498927, 2.862184585732788e-56),
    (11.887863560471148, 2.955774603298192e-62),
])


# log_gamma_ratio's Stirling difference: both arguments at least this, and
# B_2k / (2k (2k - 1)) for k = 1..7; the k = 8 term is below 3e-20 there
_STIRLING_MIN = 16.0
_STIRLING_COEFFS = tuple(
    bk / (2 * k * (2 * k - 1))
    for k, bk in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), 1)
)


class ConvergenceError(RuntimeError):
    """Raised when a series does not converge within the term budget."""


def log_gamma_ratio(num: float, den: float) -> float:
    """Return ln Gamma(num) - ln Gamma(den) for positive arguments.

    Works in log space so ratios like Gamma(D/2 + 1/2) / Gamma(D/2) stay
    finite for large D, where Gamma itself overflows double precision.
    While either argument is below 16 it is `math.lgamma(num) -
    math.lgamma(den)`. When both are at least 16 it is the difference of
    their Stirling series, with d = num - den,
    (den - 1/2) log1p(d/den) + d (ln num - 1)
    + sum_{k<=7} B_2k / (2k (2k - 1)) (num^(1-2k) - den^(1-2k)),
    whose terms do not cancel: Gamma(D/2 + 1/2) / Gamma(D/2) stays within
    1e-15 relative of mpmath from D = 32 to 4096, where the two lgamma
    values near 6e3 cancel to 3.5e-13 at D = 2048.
    """
    if num <= 0.0 or den <= 0.0:
        raise ValueError(f"log_gamma_ratio needs positive arguments, got ({num}, {den})")
    if num < _STIRLING_MIN or den < _STIRLING_MIN:
        return math.lgamma(num) - math.lgamma(den)
    delta = num - den
    tail = sum(c * (num ** (1 - 2 * k) - den ** (1 - 2 * k))
               for k, c in enumerate(_STIRLING_COEFFS, 1))
    return (den - 0.5) * math.log1p(delta / den) + delta * (math.log(num) - 1.0) + tail


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


@functools.lru_cache(maxsize=1024)
def _quadrature_rule(b: float) -> tuple[np.ndarray, np.ndarray]:
    # (-t, c) as (40, 1) columns, with 1F1(-1/2, b, -y) = 1 - sum_j c_j
    # expm1(-y t_j). DLMF 13.3.15 and Euler's integral 13.4.1 for
    # M(1/2, b + 1, -tau) give
    #   h(y) = 1 + (C_b / b) int_0^1 (1 - e^(-y s^2)) s^-2 (1 - s^2)^(b - 1/2) ds,
    # C_b = Gamma(b + 1) / (sqrt(pi) Gamma(b + 1/2)); 1 - s^2 = e^(-x^2/beta),
    # beta = b + 1/2, turns the weight into e^(-x^2) for every b, so with
    # u_j = x_j^2 and t_j = -expm1(-u_j / beta) on the rule's positive nodes,
    # c_j = C_b / (b sqrt(beta)) w_j sqrt(u_j / (beta t_j)) / t_j.
    beta = b + 0.5
    u = _HERMITE_80[:, 0] ** 2
    t = -np.expm1(-u / beta)
    c_b = math.exp(log_gamma_ratio(b + 1.0, beta)) / math.sqrt(math.pi)
    coef = c_b / (b * math.sqrt(beta)) * _HERMITE_80[:, 1] * np.sqrt(u / (beta * t)) / t
    neg_t, coef = -t[:, None], coef[:, None]
    neg_t.flags.writeable = coef.flags.writeable = False
    return neg_t, coef


def _quadrature_1f1(b: float, y: np.ndarray) -> np.ndarray:
    # 1F1(-1/2, b, -y) for a 1-d array y in the Gauss-Hermite regime, in
    # blocks of at most _QUAD_BLOCK_VALUES nodes times elements. Each
    # element's 40 terms are summed pairwise by whole rows of the block,
    # the same additions in the same order for every element.
    neg_t, coef = _quadrature_rule(b)
    out = np.empty(y.size)
    step = _QUAD_BLOCK_VALUES // len(coef)
    for lo in range(0, y.size, step):
        terms = neg_t * y[lo:lo + step]
        np.expm1(terms, out=terms)
        terms *= coef
        n = len(terms)
        while n > 1:
            half = n // 2
            terms[:half] += terms[n - half:n]
            n -= half
        out[lo:lo + step] = 1.0 - terms[0]
    return out


def _quadrature_xs(b: float, x):
    # where 1F1(-1/2, b, x) with b >= 16 takes the Gauss-Hermite rule:
    # -3b <= x < 0, elementwise for an array x
    return (x < 0.0) & (x >= -_QUAD_MAX_Y * b)


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric function of the first kind, 1F1(a; b; x).

    Parameters
    ----------
    a, b, x : float
        Series parameters; b must be positive. Accuracy is guaranteed for
        a in [-3, 0] with x <= 0, the regime of the expected-norm formula.

    Notes
    -----
    For a = -1/2, b >= 16 and -3b <= x < 0 the value comes from a fixed
    80-point Gauss-Hermite rule (see the module docstring). Other negative
    arguments are routed through the transformation
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
    if a == -0.5 and b >= _QUAD_MIN_B and _quadrature_xs(b, x):
        return float(_quadrature_1f1(b, np.array([-x]))[0])
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

    Elements in the Gauss-Hermite regime (a = -1/2, b >= 16, -3b <= x < 0)
    are evaluated together, in blocks, by the rule `kummer_1f1` takes for
    them, each element's 40 terms summed in one fixed order. Other
    elements with x <= 0 and b - a > 0 that `kummer_1f1` sums directly
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
        quad_bs = [b] if a == -0.5 and b >= _QUAD_MIN_B else []
    else:
        b = np.broadcast_to(np.asarray(b, dtype=float), x.shape)
        if not np.all(b > 0.0):
            raise ValueError("kummer_1f1_array needs every b > 0")
        values, which = np.unique(b, return_inverse=True)
        cutoff = np.array([_deep_below(a, float(v)) for v in values])[which.reshape(x.shape)]
        # the rule's b from these values: np.unique without return_inverse
        # takes numpy's hash-based unique, whose first call costs 1.2 MB
        # resident
        quad_bs = values[values >= _QUAD_MIN_B] if a == -0.5 else []
    out = np.empty(x.shape)
    series = (x >= cutoff) & (x <= 0.0) & (b - a > 0.0)
    # the elements evaluated here, by the series or by the rule; with no
    # rule elements it is series itself (a second mask kept alive through
    # the series raised the pipeline's peak resident size by 2 MB in about
    # a third of its runs)
    summed = series
    for v in quad_bs:
        quad = _quadrature_xs(v, x) & (b == v)
        out[quad] = _quadrature_1f1(float(v), -x[quad])
        series = series & ~quad
        summed = summed | quad
    if not summed.all():
        for i in zip(*np.nonzero(~summed)):
            out[i] = kummer_1f1(a, b if isinstance(b, float) else float(b[i]), float(x[i]))
    xs = x[series]
    bs = b if isinstance(b, float) else b[series]
    out[series] = np.exp(xs) * _series_1f1_lockstep(bs - a, bs, -xs)
    return out


def kummer_1f1_derivative(a: float, b: float, x: float) -> float:
    """Derivative of 1F1 in its argument: (a/b) * 1F1(a + 1, b + 1, x)."""
    return (a / b) * kummer_1f1(a + 1.0, b + 1.0, x)
