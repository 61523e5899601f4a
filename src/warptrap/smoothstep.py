"""The standard C-infinity step glued from s -> exp(-1/s).

step(s) = phi(s) / (phi(s) + phi(1-s)) with phi(s) = exp(-1/s) for s > 0,
so step == 0 for s <= 0, == 1 for s >= 1, and is strictly increasing in
between with all derivatives vanishing at both ends.

On the open transition the step is the logistic function y = 1/(1 + e^u)
of u = 1/s - 1/(1-s), so its derivatives up to order 2, the highest any
caller takes, follow in closed form from Faa di Bruno's formula.  y and
1 - y are each evaluated directly, never one from the other, which keeps
full relative accuracy near the ends, where one of them underflows.

The quasimode cutoff and the wall-attached manufactured solution build
their derivatives from these orders; the tests check the closed form
against the derivatives sympy takes of phi(s) / (phi(s) + phi(1-s)).
"""

from __future__ import annotations

import numpy as np

__all__ = ["smooth_step"]

MAX_ORDER = 2


def _transition(s: np.ndarray, order: int) -> np.ndarray:
    """The order-th derivative of the step at points strictly inside (0, 1)."""
    a, b = 1.0 / s, 1.0 / (1.0 - s)
    u = a - b
    y = 1.0 / (1.0 + np.exp(u))
    if order == 0:
        return y
    yb = 1.0 / (1.0 + np.exp(-u))
    # y in u: y' = p, y'' = p q
    p, q = -y * yb, y - yb
    # u in s: u^(k) = (-1)^k k! / s^(k+1) - k! / (1-s)^(k+1)
    u1, u2 = -(a**2 + b**2), 2.0 * (a**3 - b**3)
    if order == 1:
        return p * u1
    return p * (q * u1**2 + u2)


def smooth_step(s, order: int = 0):
    """The step (order 0) or its order-th derivative at s, vectorized; a
    scalar s gives a float."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"derivative order must be in [0, {MAX_ORDER}]")
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    if order == 0:
        out[s >= 1.0] = 1.0
    interior = (s > 0.0) & (s < 1.0)
    if np.any(interior):
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            out[interior] = _transition(s[interior], order)
    return float(out[0]) if scalar else out
