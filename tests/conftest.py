"""Shared fitted-model fixtures (session-scoped: built once, read-only),
and `opened_paths`, the path of every file a test opens."""

import builtins

import numpy as np
import pytest

from finslergp.data import _pinwheel_plane, inverse_stereographic
from finslergp.gp import RBF, Kernel, fit_hyperparameters, make_model


def _smooth_targets(X, d=3):
    cols = []
    for j in range(d):
        cols.append(np.sin(X @ np.arange(1, X.shape[1] + 1) * 0.7 + 0.3 * j) + 0.1 * j)
    return np.stack(cols, axis=1)


@pytest.fixture(scope="session")
def gp_model_2d():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.5, 1.5, (40, 2))
    return make_model(X, _smooth_targets(X, 4), Kernel(RBF, 1.0, 1.0), 1e-4)


@pytest.fixture(scope="session")
def gp_dense_model():
    # 15x15 lattice of latents with 64 trigonometric output features:
    # posterior variance is tiny everywhere inside the lattice, so the
    # expected-norm and expected-metric geometries nearly coincide there
    rng = np.random.default_rng(5)
    g = np.linspace(-2.0, 2.0, 15)
    X = np.array([[a, b] for a in g for b in g])
    W = rng.normal(0.0, 1.0, (2, 64))
    phase = rng.uniform(0.0, 2.0 * np.pi, 64)
    return make_model(X, np.sin(X @ W + phase), Kernel(RBF, 0.8, 1.0), 1e-6)


@pytest.fixture(scope="session")
def pinwheel_model():
    # sphere-projected pinwheel regressed on its own planar coordinates:
    # arms are data-dense (near-zero posterior variance), inter-arm gaps
    # and the far field are voids
    xy, _ = _pinwheel_plane(500, 5, 0.01, np.random.default_rng(11))
    points = inverse_stereographic(xy)
    return fit_hyperparameters(xy, points, Kernel(RBF, 0.6, 1.0), 1e-3, steps=60)


@pytest.fixture(scope="session")
def gp_arc_model():
    # training latents on the upper unit arc: the interior is a data void
    phi = np.linspace(0.0, np.pi, 25)
    X = np.column_stack([np.cos(phi), np.sin(phi)])
    return make_model(X, _smooth_targets(X, 3), Kernel(RBF, 0.4, 1.0), 1e-4)


@pytest.fixture
def opened_paths(monkeypatch):
    """The paths passed to `open` while the test runs, in order, as strings."""
    paths = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        paths.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    return paths
