"""The library's one optimizer: limited-memory BFGS with Armijo backtracking,
in numpy only. It minimizes curve energies (`geodesic.minimize_energy`) and
minus the GP fit objective (`gp`); the two differ only in their
steepest-descent fallback step."""

from collections import deque, namedtuple

import numpy as np

TOL = 1e-10  # the default tol of the geodesics, and the fit's
_ARMIJO_C = 1e-4
_MEMORY = 10

# the last accepted x with fun's value and aux; iterations counts directions
Minimum = namedtuple("Minimum", "x value aux iterations converged")


def _direction(g: np.ndarray, history) -> np.ndarray:
    """Two-loop recursion: minus the inverse-Hessian estimate of the
    (s, y, 1/s^T y) pairs in history, oldest first, applied to g, with the
    initial estimate scaled by s^T y / y^T y of the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    s, y, _ = history[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def minimize(fun, x0, fallback, max_iter: int, tol: float, on_step=None, failed=()) -> Minimum:
    """Minimize fun(x) -> (value, gradient, aux) from the 1-d x0, moving
    along the two-loop direction of the last 10 steps with positive
    curvature or, without one that descends, along fallback(x, g). Steps
    start at 1 and halve, at most 60 times, until the Armijo condition
    (c = 1e-4) holds, so accepted values never increase; a failed search
    retries once with the fallback. A trial at which fun raises a type in
    failed is a failed trial. Converged when the predicted decrease along
    the chosen direction is small, -g.d <= tol |value|, or the search fails
    with the fallback; max_iter iterations end it unconverged. on_step(value)
    follows every accepted step."""
    x = np.asarray(x0, dtype=float)
    value, g, aux = fun(x)
    history = deque(maxlen=_MEMORY)
    for it in range(max_iter):
        if not g.any():
            return Minimum(x, value, aux, it, True)
        trial = None
        while trial is None:
            direction = _direction(g, history) if history else None
            # "not < 0" also rejects a NaN slope
            if direction is None or not float(direction @ g) < 0.0:
                history.clear()
                direction = fallback(x, g)
            slope = float(direction @ g)
            if not -slope > tol * abs(value):
                return Minimum(x, value, aux, it + 1, True)
            for k in range(60):
                x_new = x + 0.5**k * direction
                try:
                    trial = fun(x_new)
                except failed:
                    continue
                if trial[0] <= value + _ARMIJO_C * 0.5**k * slope:
                    break
            else:
                if not history:
                    return Minimum(x, value, aux, it + 1, True)
                history.clear()
                trial = None
        s, y = x_new - x, trial[1] - g
        sy = float(s @ y)
        if sy > 0.0:
            history.append((s, y, 1.0 / sy))
        x, (value, g, aux) = x_new, trial
        if on_step is not None:
            on_step(value)
    return Minimum(x, value, aux, max_iter, False)
