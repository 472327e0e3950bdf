import math
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from finslergp import specfun
from finslergp.specfun import (
    _LOCKSTEP_MIN,
    ConvergenceError,
    kummer_1f1,
    kummer_1f1_array,
    kummer_1f1_derivative,
    log_gamma_ratio,
)
from oracles import hermite_rule_positive_half, hyp1f1_mp, hyp1f1_series, loggamma_mp


def test_log_gamma_ratio_simple_values():
    # Gamma(1.5) = sqrt(pi)/2, Gamma(1) = 1
    assert math.isclose(log_gamma_ratio(1.5, 1.0), math.log(math.sqrt(math.pi) / 2), rel_tol=1e-12)
    assert log_gamma_ratio(2.0, 1.0) == 0.0


def test_log_gamma_ratio_large_arguments():
    val = log_gamma_ratio(500.5, 500.0)
    assert abs(val - 0.5 * math.log(500.0)) < 1e-3
    oracle = float(loggamma_mp(500.5) - loggamma_mp(500.0))
    assert math.isclose(val, oracle, rel_tol=1e-12)


def test_log_gamma_ratio_matches_extended_precision():
    rng = np.random.default_rng(11)
    for _ in range(50):
        num = float(rng.uniform(0.1, 1e6))
        den = float(rng.uniform(0.1, 1e6))
        got = log_gamma_ratio(num, den)
        want = float(loggamma_mp(num) - loggamma_mp(den))
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_log_gamma_ratio_matches_scipy_gammaln():
    # Gamma(d/2 + 1/2) / Gamma(d/2), as the norms use it. Past d of a few
    # hundred the difference cancels: ln Gamma(2048) is about 1.4e4 and the
    # ratio about 3.5, so rounding each log-gamma to its last bit moves the
    # ratio by up to ~1e-12 relative, for lgamma and gammaln alike (both
    # differ that much from mpmath near d = 3500). The bound is 2e-13
    # relative or 8 ulps of the larger log-gamma, whichever is wider.
    for d in range(1, 4097):
        num, den = 0.5 * d + 0.5, 0.5 * d
        want = float(scipy.special.gammaln(num) - scipy.special.gammaln(den))
        ulps = 8.0 * sys.float_info.epsilon * max(abs(math.lgamma(num)), abs(math.lgamma(den)))
        assert math.isclose(log_gamma_ratio(num, den), want, rel_tol=2e-13, abs_tol=ulps), d


def test_log_gamma_ratio_at_large_d_against_mpmath():
    # Gamma(D/2 + 1/2) / Gamma(D/2) at every D from 32 to 4096, through the
    # Stirling difference: the two lgamma values near 3e3 it replaces
    # cancel to 1.6e-13 relative at D = 512 and 3.5e-13 at D = 2048
    with mp.workdps(40):
        for d in range(32, 4097):
            b = mp.mpf(d) / 2
            want = mp.exp(mp.loggamma(b + 0.5) - mp.loggamma(b))
            got = math.exp(log_gamma_ratio(0.5 * d + 0.5, 0.5 * d))
            assert abs(got - want) <= 1e-15 * want, d


@pytest.mark.parametrize("bad", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_log_gamma_ratio_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        log_gamma_ratio(*bad)


def test_kummer_at_zero_is_one():
    assert kummer_1f1(-0.5, 5.0, 0.0) == 1.0
    assert kummer_1f1(-3.0, 0.5, 0.0) == 1.0


def test_kummer_terminating_polynomial():
    # 1F1(-1, b, c) = 1 - c/b
    assert math.isclose(kummer_1f1(-1.0, 5.0, 2.0), 0.6, rel_tol=1e-14)
    assert math.isclose(kummer_1f1(-1.0, 4.0, 1.0), 0.75, rel_tol=1e-14)


def test_kummer_negative_argument_against_series_oracle():
    got = kummer_1f1(-0.5, 1.0, -2.0)
    want = float(hyp1f1_series(-0.5, 1.0, -2.0))
    assert math.isclose(got, want, rel_tol=1e-10)


def test_kummer_rejects_nonpositive_b():
    with pytest.raises(ValueError):
        kummer_1f1(-0.5, 0.0, -1.0)
    with pytest.raises(ValueError):
        kummer_1f1(-0.5, -2.0, -1.0)


def test_transform_identity_in_extended_precision():
    # e^x 1F1(b-a, b, -x) must reproduce 1F1(a, b, x) when both sides are
    # summed naively with enough working digits.
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = float(rng.uniform(-3.0, 0.0))
        b = float(rng.uniform(0.5, 50.0))
        x = float(rng.uniform(-30.0, 0.0))
        direct = hyp1f1_series(a, b, x, terms=300)
        with mp.workdps(60):
            transformed = mp.e ** mp.mpf(x) * hyp1f1_series(b - a, b, -x, terms=300)
            assert abs(direct - transformed) <= 1e-10 * abs(direct)
        got = kummer_1f1(a, b, x)
        assert math.isclose(got, float(direct), rel_tol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=-3.0, max_value=0.0),
    b=st.floats(min_value=0.5, max_value=50.0),
    x=st.floats(min_value=-30.0, max_value=0.0),
)
def test_kummer_matches_oracle_property(a, b, x):
    got = kummer_1f1(a, b, x)
    want = float(hyp1f1_series(a, b, x, terms=300))
    assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)


def test_kummer_grows_with_noncentrality():
    # x -> 1F1(-1/2, b, -x) must increase for x >= 0: more signal, larger norm.
    # b = 16 and 64 cross from the Gauss-Hermite rule to the series at -3b
    for b in (0.5, 1.0, 2.5, 16.0, 17.0, 64.0):
        xs = np.linspace(0.0, 120.0, 200)
        vals = [kummer_1f1(-0.5, b, -x) for x in xs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_wendel_gamma_ratio_bound():
    # Gamma(b + 1/2)/Gamma(b) <= (b + 1/2)^(1/2)
    for b in np.geomspace(0.1, 1e5, 40):
        assert log_gamma_ratio(b + 0.5, b) <= 0.5 * math.log(b + 0.5) + 1e-12


def test_asymptotic_switch_matches_true_value():
    a = -0.5
    for b in (0.5, 1.0, 2.0, 5.0):
        x = -705.0
        got = kummer_1f1(a, b, x)
        want = float(hyp1f1_mp(a, b, x))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_deep_negative_argument_against_mpmath():
    # covers both deep-negative evaluation strategies: the divergent-series
    # truncation (|x| >> b^2) and the rescaled log-space sum (b^2 ~ |x|,
    # where the truncation stops at a non-negligible term)
    for a in (-0.5, 0.5, -1.5):
        for b in (0.5, 8.0, 32.0, 512.0):
            if b - a <= 0:
                continue
            for x in (-701.0, -1700.0, -5500.0, -3e4, -1e6):
                got = kummer_1f1(a, b, x)
                want = float(hyp1f1_mp(a, b, x))
                assert abs(got - want) <= 1e-11 * abs(want), (a, b, x)


def test_hermite_table_is_the_rounded_80_point_rule():
    # the table is hermgauss(80)'s positive half, polished in extended
    # precision and rounded once; hermgauss itself is within a few ulps of
    # the nodes and 3e-14 of the (down to 3e-62 small) weights
    assert np.array_equal(specfun._HERMITE_80, hermite_rule_positive_half(80))
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    np.testing.assert_allclose(specfun._HERMITE_80[:, 0], nodes[40:], rtol=1e-15)
    np.testing.assert_allclose(specfun._HERMITE_80[:, 1], weights[40:], rtol=1e-13)


@pytest.mark.parametrize("b, y", [(256.0, 768.0), (512.0, 768.0), (512.0, 1536.0)])
def test_kummer_gauss_hermite_pins_against_mpmath(b, y):
    # the series and the asymptotic branch gave 1.6e-13, 2.8e-13 and
    # 2.9e-13 relative here
    want = hyp1f1_mp(-0.5, b, -y, dps=40)
    assert abs(kummer_1f1(-0.5, b, -y) - want) <= 2e-15 * want


@pytest.mark.parametrize("b", [16.0, 16.5, 32.0, 128.0, 512.0, 2048.0, 4096.0])
def test_kummer_gauss_hermite_regime_against_mpmath(b):
    # y = -x over (0, 3b], geometric from 1e-12 and evenly spaced
    y = np.concatenate([np.geomspace(1e-12, 3.0 * b, 24), np.linspace(3.0 * b / 24, 3.0 * b, 24)])
    got = kummer_1f1_array(-0.5, b, -y)
    for v, g in zip(y, got):
        want = hyp1f1_mp(-0.5, b, -float(v), dps=40)
        assert abs(g - want) <= 2e-15 * want, (b, v)


def test_kummer_continuous_across_the_gauss_hermite_gate():
    # at b = 16 the rule against the transformed series over (0, 3b], and
    # at x = -3b against the next double below, which the series (or past
    # -700 the asymptotic branch) takes
    y = np.linspace(1e-3, 48.0, 200)
    series = np.array([math.exp(-v) * specfun._series_1f1(16.5, 16.0, v) for v in y])
    rule = kummer_1f1_array(-0.5, 16.0, -y)
    assert np.all(np.abs(rule - series) <= 1e-14 * series)
    for b in (16.0, 17.0, 64.0, 199.5, 256.0, 512.0, 2048.0):
        inside = kummer_1f1(-0.5, b, -3.0 * b)
        outside = kummer_1f1(-0.5, b, float(np.nextafter(-3.0 * b, -np.inf)))
        assert abs(inside - outside) <= 1e-14 * inside, b


def test_kummer_gauss_hermite_needs_no_lapack(monkeypatch):
    # the rule is a table: building it for a new b must not start numpy's
    # LAPACK (and its BLAS thread pool)
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    specfun._quadrature_rule.cache_clear()
    x = -np.linspace(0.1, 192.0, 50)
    got = kummer_1f1_array(-0.5, 64.0, x)
    assert np.all(np.isfinite(got)) and np.all(np.diff(got) > 0.0)


def test_series_and_asymptotic_agree_near_cutoff():
    # both evaluation strategies are full-precision at the handover point
    a, b = -0.5, 2.0
    for x in (-700.5, -699.5):
        got = kummer_1f1(a, b, x)
        assert abs(got - float(hyp1f1_mp(a, b, x))) <= 1e-12 * abs(got)


def test_derivative_at_zero():
    # (a/b) * 1F1(..., 0) = a/b
    assert math.isclose(kummer_1f1_derivative(-0.5, 2.0, 0.0), -0.25, rel_tol=1e-14)


def test_derivative_with_unit_shifted_series():
    # shifting a = -1 up by one gives a = 0, whose series is identically 1,
    # so the derivative is the constant a/b = -1/4 (consistent with
    # 1F1(-1, 4, x) = 1 - x/4)
    assert math.isclose(kummer_1f1_derivative(-1.0, 4.0, 1.0), -0.25, rel_tol=1e-14)
    fd = (kummer_1f1(-1.0, 4.0, 1.0 + 1e-6) - kummer_1f1(-1.0, 4.0, 1.0 - 1e-6)) / 2e-6
    assert math.isclose(fd, -0.25, rel_tol=1e-8)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = float(rng.uniform(-3.0, -0.05))
        b = float(rng.uniform(0.5, 40.0))
        x = float(rng.uniform(-25.0, 0.0))
        h = 1e-6
        fd = (kummer_1f1(a, b, x + h) - kummer_1f1(a, b, x - h)) / (2 * h)
        got = kummer_1f1_derivative(a, b, x)
        assert math.isclose(got, fd, rel_tol=1e-5, abs_tol=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    b=st.floats(min_value=0.5, max_value=512.0),
    xs=st.lists(st.floats(min_value=-3e4, max_value=0.0), min_size=1, max_size=150),
    near_cutoff=st.lists(st.floats(min_value=-701.0, max_value=-699.0), max_size=10),
)
def test_kummer_array_matches_scalar_property(b, xs, near_cutoff):
    # both sides of the -700 handover; with at most 160 elements every
    # series runs in the block tail, not the lockstep; (a, b) as in the
    # Finsler norm and in its derivative
    x = np.array(xs + near_cutoff)
    for a, bb in ((-0.5, b), (0.5, b + 1.0)):
        got = kummer_1f1_array(a, bb, x)
        want = np.array([kummer_1f1(a, bb, float(v)) for v in x])
        assert got.shape == x.shape
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_kummer_array_is_bitwise_the_scalar_function():
    rng = np.random.default_rng(13)
    x = np.concatenate([-rng.uniform(0.0, 700.0, 3000), -rng.exponential(1.0, 300),
                        [0.0, -700.0, -700.5, -5e3, 2.5]])
    for b in (0.5, 1.5, 17.0, 512.0):
        got = kummer_1f1_array(-0.5, b, x.reshape(5, -1))
        want = np.array([kummer_1f1(-0.5, b, float(v)) for v in x]).reshape(5, -1)
        assert np.array_equal(got, want)


def test_kummer_array_empty_and_rejects_nonpositive_b():
    assert kummer_1f1_array(-0.5, 2.0, np.array([])).shape == (0,)
    with pytest.raises(ValueError):
        kummer_1f1_array(-0.5, 0.0, np.array([-1.0]))


def _assert_array_is_scalar_bitwise(x):
    # (a, b) as in the Finsler norm and in its derivative, small to large b
    for b in (0.5, 17.0, 512.0):
        for a, bb in ((-0.5, b), (0.5, b + 1.0)):
            want = np.array([kummer_1f1(a, bb, float(v)) for v in x])
            assert np.array_equal(kummer_1f1_array(a, bb, x), want), (x.size, a, bb)


@pytest.mark.parametrize("n", [1, 8, _LOCKSTEP_MIN - 1, _LOCKSTEP_MIN, _LOCKSTEP_MIN + 1])
def test_kummer_array_bitwise_around_the_lockstep_size(n):
    # below _LOCKSTEP_MIN the block tail sums everything; at and above it
    # the lockstep hands its unconverged elements to the block tail
    _assert_array_is_scalar_bitwise(-np.random.default_rng(n).uniform(0.0, 700.0, n))


def test_kummer_array_bitwise_with_stragglers():
    # the shallow arguments converge in the lockstep, the deep ones finish
    # in many blocks of the tail
    rng = np.random.default_rng(19)
    _assert_array_is_scalar_bitwise(
        np.concatenate([-rng.uniform(0.0, 5.0, 2000), -rng.uniform(600.0, 700.0, 40)]))


@pytest.mark.parametrize("n", [1, _LOCKSTEP_MIN + 10])
def test_block_tail_raises_when_the_terms_run_out(monkeypatch, n):
    # x = -600 needs far more than 40 terms; in the larger batch the other
    # elements converge in the lockstep and -600 alone reaches the tail
    monkeypatch.setattr(specfun, "_MAX_TERMS", 40)
    x = np.full(n, -1.0)
    x[-1] = -600.0
    with pytest.raises(ConvergenceError, match="did not converge"):
        kummer_1f1_array(-0.5, 1.5, x)


@pytest.mark.parametrize("a", [-3.0, -2.5, -1.5, -0.5])
@pytest.mark.parametrize("b", [0.5, 17.0, 512.0])
def test_kummer_finite_and_accurate_down_to_the_underflow(a, b):
    # near a = -3 the transformed sum passes the largest double before
    # x = -700, so below -600 the branch follows an estimate of its size
    x = np.concatenate([np.linspace(-745.0, -600.0, 30), [-700.0, -699.0, -650.0]])
    got = kummer_1f1_array(a, b, x)
    for v, g in zip(x, got):
        assert g == kummer_1f1(a, b, float(v))
        want = float(hyp1f1_mp(a, b, float(v)))
        assert abs(g - want) <= 1e-12 * abs(want), (a, b, v, g, want)


def test_kummer_array_per_element_b_is_bitwise_the_scalar_function():
    # b in {0.5, 15.5, 16, 17, 512} mixed in one call of 400 elements: at
    # a = -1/2 the b >= 16 elements down to x = -3b take the Gauss-Hermite
    # rule, one group per b; the lockstep runs first on the rest, the deep
    # arguments finish in the block tail, and those past the cutoff take the
    # deep branch through kummer_1f1; at a = -3 that cutoff lies between
    # -700 and -600 and differs with b
    rng = np.random.default_rng(29)
    x = np.concatenate([-rng.uniform(0.0, 5.0, 300), -rng.uniform(5.0, 600.0, 50),
                        -rng.uniform(600.0, 700.0, 30), -rng.uniform(700.0, 760.0, 18),
                        [0.0, -700.0]])
    b = rng.choice([0.5, 15.5, 16.0, 17.0, 512.0], x.size)
    assert set(b[x < -700.0]) == {0.5, 15.5, 16.0, 17.0, 512.0}
    for a, shift in ((-0.5, 0.0), (0.5, 1.0), (-3.0, 0.0)):
        got = kummer_1f1_array(a, (b + shift).reshape(20, -1), x.reshape(20, -1))
        want = np.array([kummer_1f1(a, bb + shift, float(v)) for bb, v in zip(b, x)])
        assert np.array_equal(got, want.reshape(20, -1))


def test_kummer_array_per_element_b_rejects_nonpositive_b():
    with pytest.raises(ValueError, match="b > 0"):
        kummer_1f1_array(-0.5, np.array([1.0, 0.0]), np.array([-1.0, -2.0]))


def test_kummer_array_b_not_above_a_takes_the_scalar_function(monkeypatch):
    # b <= a: the transformed series 1F1(b - a, b, -x) has a nonpositive
    # first parameter, so its terms are not all nonnegative and those
    # elements never enter the lockstep; with a scalar b and a per-element
    # b mixing both sides of b = a, every element is the scalar value
    summed = []

    def recording_lockstep(a, b, x):
        summed.append(np.broadcast_to(a, x.shape).copy())
        return lockstep(a, b, x)

    lockstep = specfun._series_1f1_lockstep
    monkeypatch.setattr(specfun, "_series_1f1_lockstep", recording_lockstep)
    rng = np.random.default_rng(31)
    x = np.concatenate([-rng.uniform(0.0, 50.0, 300), [0.0, -1e-3, -650.0, -700.0]])
    for a, b in ((1.0, 0.5), (2.5, 1.0), (1.0, 1.0)):
        want = np.array([kummer_1f1(a, b, float(v)) for v in x])
        assert np.array_equal(kummer_1f1_array(a, b, x), want), (a, b)
    b = rng.choice([0.5, 1.0, 2.5, 4.0], x.size)
    want = np.array([kummer_1f1(1.0, bb, float(v)) for bb, v in zip(b, x)])
    assert np.array_equal(kummer_1f1_array(1.0, b, x), want)
    assert all(np.all(a > 0.0) for a in summed) and sum(a.size for a in summed) > 0
