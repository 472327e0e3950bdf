"""Shared test fixtures: random bounded Jacobian-posterior ensembles.

The ensemble keeps v^T Sigma v >= 0.1 for unit v (covariance floor) and
Jacobian-mean entries in [-1, 1], so noncentrality stays in the regime
where the hypergeometric series is cheap and the bounded-entry tail bounds
apply.
"""

import numpy as np

from finslergp.fields import JacobianPosterior
from finslergp.metric import MetricPoint

COV_FLOOR = 0.1
MEAN_ENTRY_BOUND = 1.0


def random_point(rng, d=None, q=None, d_max=100, q_max=5):
    d = int(d if d is not None else rng.integers(1, d_max + 1))
    q = int(q if q is not None else rng.integers(1, q_max + 1))
    mean = rng.uniform(-MEAN_ENTRY_BOUND, MEAN_ENTRY_BOUND, (d, q))
    a = rng.standard_normal((q, q)) / np.sqrt(q)
    cov = a.T @ a + COV_FLOOR * np.eye(q)
    return MetricPoint(JacobianPosterior(mean=mean, cov=cov, dim_data=d))


def random_unit_vector(rng, q):
    v = rng.standard_normal(q)
    return v / np.linalg.norm(v)


def random_point_and_vector(rng, **kw):
    p = random_point(rng, **kw)
    return p, random_unit_vector(rng, p.dim_latent)
