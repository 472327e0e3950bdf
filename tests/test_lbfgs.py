"""The shared L-BFGS solver on a convex quadratic."""

import numpy as np
import pytest

from finslergp import _lbfgs


def _quadratic(dim=20, condition=1e3, seed=0):
    """f(x) = (x - x*)^T A (x - x*) / 2 + 1 with A's eigenvalues spread
    log-uniformly over [1, condition]; f's minimum is 1 at x*."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = basis @ np.diag(np.logspace(0.0, np.log10(condition), dim)) @ basis.T
    x_star = rng.standard_normal(dim)

    def fun(x):
        r = x - x_star
        ar = a @ r
        return 0.5 * float(r @ ar) + 1.0, ar, None

    return fun, x_star


def _fallback(x, g):
    return (-0.01 / np.linalg.norm(g)) * g


def test_converges_on_an_ill_conditioned_quadratic_with_values_never_increasing():
    fun, x_star = _quadratic()
    values = []
    found = _lbfgs.minimize(fun, np.zeros(20), _fallback, 500, _lbfgs.TOL, on_step=values.append)
    assert found.converged
    assert 0 < found.iterations < 500
    assert found.value < 1.0 + 1e-8
    assert np.max(np.abs(found.x - x_star)) < 1e-3
    assert found.value == values[-1]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_rerun_is_bit_identical():
    fun, _ = _quadratic()
    a = _lbfgs.minimize(fun, np.zeros(20), _fallback, 500, _lbfgs.TOL)
    b = _lbfgs.minimize(fun, np.zeros(20), _fallback, 500, _lbfgs.TOL)
    assert np.array_equal(a.x, b.x)
    assert (a.value, a.iterations) == (b.value, b.iterations)


def test_too_few_iterations_is_not_converged():
    fun, _ = _quadratic()
    found = _lbfgs.minimize(fun, np.zeros(20), _fallback, 5, _lbfgs.TOL)
    assert found.iterations == 5
    assert not found.converged
    assert found.value < fun(np.zeros(20))[0]


def test_a_trial_that_raises_a_listed_error_is_a_failed_trial():
    # fun raises outside the ball |x| < 2; the solver backtracks into it
    fun, _ = _quadratic()

    def bounded(x):
        if np.max(np.abs(x)) >= 2.0:
            raise ValueError("outside")
        return fun(x)

    def long_step(x, g):
        return (-10.0 / np.max(np.abs(g))) * g

    found = _lbfgs.minimize(bounded, np.zeros(20), long_step, 3, 0.0, failed=(ValueError,))
    assert found.iterations == 3
    assert found.value < fun(np.zeros(20))[0]
    with pytest.raises(ValueError, match="outside"):
        _lbfgs.minimize(bounded, np.full(20, 3.0), long_step, 3, 0.0, failed=(ValueError,))
    with pytest.raises(ValueError, match="outside"):
        _lbfgs.minimize(bounded, np.zeros(20), long_step, 3, 0.0)


def test_a_failed_two_loop_search_retries_with_the_fallback():
    # after the first step, every trial along the two-loop direction raises
    # a listed error: the search fails, the history is dropped and the same
    # iteration retries along the fallback, whose trials succeed
    fun, x_star = _quadratic()
    evaluated, traps, first = [], [0], []

    def trapped(x):
        evaluated.append(x)
        if traps[0]:
            traps[0] -= 1
            raise FloatingPointError("trapped")
        return fun(x)

    def on_step(value):
        if not first:
            first.append(len(evaluated))
            traps[0] = 60

    found = _lbfgs.minimize(trapped, np.zeros(20), _fallback, 500, _lbfgs.TOL,
                            on_step=on_step, failed=(FloatingPointError,))
    x1 = evaluated[first[0] - 1]
    retry = evaluated[first[0] + 60]
    assert traps[0] == 0
    assert np.array_equal(retry, x1 + _fallback(x1, fun(x1)[1]))
    assert not np.array_equal(evaluated[first[0]], retry)
    assert found.converged
    assert found.value < 1.0 + 1e-8
    assert np.max(np.abs(found.x - x_star)) < 1e-3
