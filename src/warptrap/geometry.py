"""Warp profile of the surface and the per-mode radial potentials.

The metric is dx^2 + a(x)^2 dsigma^2 on the line times the unit sphere,
with warp a(x) = (x^{2m} + 1)^{1/(2m)}.  Separating in spherical
harmonics reduces the Laplacian (conjugated by a) to the family of 1-D
Schroedinger operators -d^2/dx^2 + V_l with

    V_l(x) = l(l+1) * a(x)^{-2} + a''(x)/a(x).

All derivative formulas below are closed forms obtained by hand from the
warp; tests validate them against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WarpGeometry",
    "WarpParams",
]


@dataclass(frozen=True)
class WarpParams:
    """Warp exponent m >= 1 and boundary location x0 != 0."""

    m: int
    x0: float

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError(f"warp exponent m must be a positive integer, got {self.m!r}")
        if self.x0 == 0:
            raise ValueError("boundary location x0 = 0 is degenerate (wall on the trapped set)")


class WarpGeometry:
    """Evaluators for a(x), its slope a'(x), a''(x)/a(x) and V_l(x).

    Evaluation is vectorized over numpy arrays.  Powers of x are routed
    through log1p so that x^{2m} underflow near x = 0 (large m) degrades
    gracefully to a = 1.
    """

    def __init__(self, params: WarpParams):
        self.params = params

    @classmethod
    def of(cls, m: int, x0: float) -> "WarpGeometry":
        return cls(WarpParams(m, x0))

    # -- warp and derivatives ------------------------------------------------

    def a(self, x):
        m = self.params.m
        t = np.abs(np.asarray(x, dtype=float)) ** (2 * m)
        return np.exp(np.log1p(t) / (2 * m))

    def da(self, x):
        # a' = (x/a)^{2m-1}; |x|/a < 1 keeps this stable everywhere
        m = self.params.m
        x = np.asarray(x, dtype=float)
        return np.sign(x) * (np.abs(x) / self.a(x)) ** (2 * m - 1)

    def a_sq(self, x):
        m = self.params.m
        t = np.abs(np.asarray(x, dtype=float)) ** (2 * m)
        return np.exp(np.log1p(t) / m)

    def inv_a_sq(self, x):
        m = self.params.m
        t = np.abs(np.asarray(x, dtype=float)) ** (2 * m)
        return np.exp(-np.log1p(t) / m)

    # -- potentials ----------------------------------------------------------

    def v0(self, x):
        """Zero-mode potential a''(x)/a(x) = (2m-1) x^{2m-2} (1+x^{2m})^{-2}."""
        m = self.params.m
        x = np.asarray(x, dtype=float)
        t = np.abs(x) ** (2 * m)
        return (2 * m - 1) * np.abs(x) ** (2 * m - 2) * np.exp(-2.0 * np.log1p(t))

    def potential(self, l: int, x):
        """V_l(x) = l(l+1) a^{-2} + a''/a."""
        if l < 0:
            raise ValueError("angular degree l must be nonnegative")
        return l * (l + 1) * self.inv_a_sq(x) + self.v0(x)

    def __repr__(self):
        return f"WarpGeometry(m={self.params.m}, x0={self.params.x0})"

