"""Extended-precision and scalar oracles used only by the test suite."""

import mpmath as mp
import numpy as np
import scipy.linalg

from finslergp.experiments import SLACK, ViolationReport, _random_curve
from finslergp.fields import SyntheticField
from finslergp.geodesic import _length_and_energy, _segment_norms_sq
from finslergp.measure import bh_volume
from finslergp.metric import bound_report, gap_bound, relative_gap
from finslergp.randmat import batch_rng

from util import random_point_and_vector


def hyp1f1_series(a, b, x, terms=200, dps=60):
    """Brute-force 1F1 power series summed in extended precision.

    No transformations, no cleverness: the raw series with enough working
    digits to survive the alternating-sign cancellation at moderate |x|.
    """
    with mp.workdps(dps):
        am, bm, xm = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        term = mp.mpf(1)
        total = mp.mpf(1)
        for k in range(terms):
            term *= (am + k) / (bm + k) * xm / (k + 1)
            total += term
        return total


def hyp1f1_mp(a, b, x, dps=50):
    """mpmath's own 1F1, for regimes the raw series cannot reach."""
    with mp.workdps(dps):
        return mp.hyp1f1(mp.mpf(a), mp.mpf(b), mp.mpf(x))


def loggamma_mp(x, dps=60):
    with mp.workdps(dps):
        return mp.loggamma(mp.mpf(x))


def bound_sweep_scalar(n_specs, seed, draws=None):
    """`experiments.bound_sweep` one spec at a time through the scalar norms:
    bound_report and relative_gap per spec, one _segment_norms_sq per
    curve's field, three bh_volume calls per volume spec. With a dict as
    draws, its lists "specs", "curves" and "volumes" receive each (p, v),
    (field, curve) and volume MetricPoint in the order drawn."""
    if draws is not None:
        draws.update(specs=[], curves=[], volumes=[])
    counts = dict.fromkeys(
        [
            "norm_sandwich", "norm_gap_range", "norm_gap_jensen",
            "curve_length_ordering", "curve_energy_ordering", "curve_length_energy",
            "curve_gap_bounds", "volume_ordering", "volume_gap_bound",
        ],
        0,
    )
    trials = dict.fromkeys(counts, 0)
    rng = batch_rng(seed, 41)

    for i in range(n_specs):
        p, v = random_point_and_vector(rng)
        if draws is not None:
            draws["specs"].append((p, v))
        trials["norm_sandwich"] += 1
        if not bound_report(p, v).ok:
            counts["norm_sandwich"] += 1
        gap, wishart, jensen = relative_gap(p, v)
        trials["norm_gap_range"] += 1
        if not -SLACK <= gap <= wishart + SLACK:
            counts["norm_gap_range"] += 1
        trials["norm_gap_jensen"] += 1
        if gap > jensen + SLACK:
            counts["norm_gap_jensen"] += 1

        if i % 10 != 0:
            continue

        fld = SyntheticField(
            seed=int(rng.integers(0, 2**31)),
            latent_dim=int(rng.integers(2, 4)),
            data_dim=int(rng.integers(2, 33)),
        )
        curve = _random_curve(rng, fld.latent_dim)
        if draws is not None:
            draws["curves"].append((fld, curve))
        *seg_sq, omegas = _segment_norms_sq(
            fld, curve.midpoints, curve.velocities, ("alpha_sigma", "finsler", "riemann", "omega")
        )
        (l_a, e_a), (l_f, e_f), (l_r, e_r) = map(_length_and_energy, seg_sq)
        trials["curve_length_ordering"] += 1
        if not (l_a <= l_f + SLACK and l_f <= l_r + SLACK):
            counts["curve_length_ordering"] += 1
        trials["curve_energy_ordering"] += 1
        if not (e_a <= e_f + SLACK and e_f <= e_r + SLACK):
            counts["curve_energy_ordering"] += 1
        trials["curve_length_energy"] += 1
        if not (
            l_a**2 <= e_a + SLACK and l_f**2 <= e_f + SLACK and l_r**2 <= e_r + SLACK
        ):
            counts["curve_length_energy"] += 1
        m = float(np.max(gap_bound(fld.data_dim, omegas)))
        trials["curve_gap_bounds"] += 1
        if l_r > 0.0 and not (
            (l_r - l_f) / l_r <= m + SLACK
            and (e_r - e_f) / e_r <= 2.0 * m + m * m + SLACK
        ):
            counts["curve_gap_bounds"] += 1

        p2, _ = random_point_and_vector(batch_rng(seed, 100_000 + i), q=2)
        if draws is not None:
            draws["volumes"].append(p2)
        v_a = bh_volume(p2, 64, "alpha_sigma")
        v_f2 = bh_volume(p2, 64, "finsler")
        v_r2 = bh_volume(p2, 64, "riemann")
        trials["volume_ordering"] += 1
        if not (v_a <= v_f2 * (1.0 + SLACK) and v_f2 <= v_r2 * (1.0 + SLACK)):
            counts["volume_ordering"] += 1
        ratio = (v_r2 - v_f2) / v_r2
        g = p2.jac.mean.T @ p2.jac.mean
        w_min = max(
            float(scipy.linalg.eigh(g, p2.jac.cov, eigvals_only=True)[0]), 0.0
        )
        eig_bound = 1.0 - (1.0 - gap_bound(p2.dim_data, w_min)) ** 2
        trials["volume_gap_bound"] += 1
        if not -SLACK <= ratio <= eig_bound + SLACK:
            counts["volume_gap_bound"] += 1

    return ViolationReport(seed=seed, n_specs=n_specs, counts=counts, trials=trials)
