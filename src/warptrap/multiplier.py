"""Multiplier identity audits for the nontrapping side of the wall.

Pairing the wave operator with f(x) d_x u + g(x) u and integrating by
parts over [0,T] x {x >= x0} turns the space-time integral of
-Box u (f d_x u + g u) into a time-boundary term, four weighted square
integrals, and a nonnegative wall flux.  For the right (f, g) all four
weights are positive, which is the engine behind lossless local energy
decay when x0 > 0.  This module evaluates both sides of that identity on
manufactured solutions, scans the coefficient positivity and checks the
Hardy inequality that controls the zeroth-order multiplier term.
``evolve.le_bound_audit`` checks the resulting local-energy bound on
evolved solutions, but only ``tests/test_multiplier.py`` calls it: no
command runs it yet (ROADMAP.md item 4).

The identity audit has one window, [0, 2] x [x0, 12], holding the corpus
supports; ``ibp_richardson`` evaluates it on 400 m x 200 cells in x and t
for the warp exponent m, and on twice both counts, and the ratio of the
two gaps gives the order.  It passes for m <= 3: from m = 4 the 15-digit
bump coefficients floor the gap near 5e-13, and the audit exits 3.

The multiplier is the interior family f = x^2 / a^2 with a small
damping parameter delta in g.  It and the manufactured solutions are
closed-form numpy: every derivative is written out by hand (powers of
1 + x^{2m}, the product rule over the smooth step and the profile
factors), so no symbolic algebra runs here.  The tests check these forms
against sympy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import WarpGeometry
from .smoothstep import smooth_step
from .spectral import Grid, fd_derivative

__all__ = [
    "CoefficientScan",
    "IdentityReport",
    "ManufacturedSolution",
    "MultiplierPair",
    "boundary_ramp_profile",
    "bump_profile",
    "coefficient_scan",
    "find_admissible_delta",
    "hardy_check",
    "hardy_random_corpus",
    "ibp_richardson",
    "make_corpus",
    "time_profile",
    "verify_ibp",
]


def _pow1p(t: np.ndarray, p: float) -> np.ndarray:
    """(1 + t)^p via log1p, stable for tiny and huge t."""
    return np.exp(p * np.log1p(t))


def _delta_family(m: int, d: float, x: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form f, g and derivatives for the interior multiplier.

    Every formula is a single power product, so there is no cancellation
    between terms of different magnitude; the identity-coefficient route
    built from these is checked against the reduced coefficient formulas
    in the tests.
    """
    q = 1.0 / m
    t = x ** (2 * m)
    lead = x ** (2 * m - 1) * (2.0 * t - 4.0 * m - 2.0) * _pow1p(t, -2.0 - q)
    damp = (2.0 * m * (2 * m + 1) * x ** (2 * m - 1)
            * (1.0 - (4.0 + q) * t + (1.0 + q) * t * t) * _pow1p(t, -4.0 - q))
    return {
        "f": x**2 * _pow1p(t, -q),
        "df": 2.0 * x * _pow1p(t, -1.0 - q),
        "g": x * _pow1p(t, -q) - d * x ** (2 * m + 1) * _pow1p(t, -2.0 - q),
        "dg": ((1.0 - t) * _pow1p(t, -1.0 - q)
               - d * (2 * m + 1) * x ** (2 * m) * (1.0 - t) * _pow1p(t, -3.0 - q)),
        "d2g": lead - d * damp,
    }


@dataclass(frozen=True)
class MultiplierPair:
    """The delta-family multiplier functions (f, g) with first and second
    derivative data."""

    geom: WarpGeometry
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    def derivatives(self, x) -> dict[str, np.ndarray]:
        """f, f', g, g' and g'' at x, keyed "f", "df", "g", "dg", "d2g"."""
        return _delta_family(self.geom.params.m, self.delta, np.asarray(x, dtype=float))

    def coefficients(self, x, d: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """The four square-term weights of the integrated identity at x,
        computed from the warp and d = ``self.derivatives(x)``, which the
        callers hold already:

            K     = (1/2) a^{-2} (a^2 f)' = f'/2 + (a'/a) f
            c_xx  = f' + g - K          (multiplies (d_x u)^2)
            c_ang = (a'/a) f + g - K    (multiplies a^{-2} |angular du|^2)
            c_tt  = K - g               (multiplies (d_t u)^2)
            c_uu  = -(1/2) a^{-2} (a^2 g')' = -(g''/2 + (a'/a) g')
                                        (multiplies u^2)
        """
        x = np.asarray(x, dtype=float)
        ra = self.geom.da(x) / self.geom.a(x)
        f, df, g, dg, d2g = d["f"], d["df"], d["g"], d["dg"], d["d2g"]
        K = 0.5 * df + ra * f
        return {
            "xx": df + g - K,
            "ang": ra * f + g - K,
            "tt": K - g,
            "uu": -(0.5 * d2g + ra * dg),
        }


def _closed_forms(m: int, x: np.ndarray, delta: float) -> dict[str, np.ndarray]:
    """Hand-reduced coefficient formulas for the delta family."""
    t = x ** (2 * m)
    p1 = (1.0 + t) ** (1.0 + 1.0 / m)
    p2 = (1.0 + t) ** (2.0 + 1.0 / m)
    p4 = (1.0 + t) ** (4.0 + 1.0 / m)
    damping = x ** (1 + 2 * m) / p2
    return {
        "xx": 2.0 * x / p1 - delta * damping,
        "ang": x ** (1 + 2 * m) / p1 - delta * damping,
        "tt": delta * damping,
        "uu": (2.0 * m * x ** (2 * m - 1) / p2
               + delta * m * (2 * m + 1) * x ** (2 * m - 1) * (t * t - 4.0 * t + 1.0) / p4),
    }


def _comparison_weights(m: int, x: np.ndarray) -> dict[str, np.ndarray]:
    t = x ** (2 * m)
    p1 = (1.0 + t) ** (1.0 + 1.0 / m)
    p2 = (1.0 + t) ** (2.0 + 1.0 / m)
    return {
        "xx": x / p1,
        "ang": x ** (1 + 2 * m) / p1,
        "tt": x ** (1 + 2 * m) / p2,
        "uu": x ** (2 * m - 1) / p2,
    }


@dataclass
class CoefficientScan:
    """Least positivity margin of each identity coefficient over the scan,
    and the agreement of the assembled coefficients with the closed forms."""

    min_margins: dict[str, float]
    route_agreement: float

    @property
    def all_positive(self) -> bool:
        return all(v > 0 for v in self.min_margins.values())


# the coefficient scan's log-spaced positive sample set (first, last, count);
# find_admissible_delta tests the same points, so a delta it finds admissible
# is always checked where the scan looks
_SCAN_POINTS = (1e-3, 1e3, 601)


def coefficient_scan(geom: WarpGeometry, pair: MultiplierPair) -> CoefficientScan:
    """Evaluate all four identity coefficients on the scan's log-spaced
    positive sample set, against the closed forms and the comparison
    weights."""
    x = np.geomspace(*_SCAN_POINTS)
    d = pair.derivatives(x)
    coeffs = pair.coefficients(x, d)
    closed = _closed_forms(geom.params.m, x, pair.delta)
    weights = _comparison_weights(geom.params.m, x)
    margins = {k: closed[k] / weights[k] for k in closed}
    # agreement of the assembled route with the reduced closed forms, measured
    # against the assembly scale (the assembly cancels many digits at large x,
    # so a plain relative comparison would be meaningless there)
    ra = geom.da(x) / geom.a(x)
    K = 0.5 * d["df"] + ra * d["f"]
    scales = {
        "xx": np.abs(d["df"]) + np.abs(d["g"]) + np.abs(K),
        "ang": np.abs(ra * d["f"]) + np.abs(d["g"]) + np.abs(K),
        "tt": np.abs(K) + np.abs(d["g"]),
        "uu": 0.5 * np.abs(d["d2g"]) + np.abs(ra * d["dg"]),
    }
    agree = max(
        float(np.max(np.abs(coeffs[k] - closed[k]) / (scales[k] + 1e-300)))
        for k in closed
    )
    return CoefficientScan(
        min_margins={k: float(np.min(v)) for k, v in margins.items()},
        route_agreement=agree,
    )


def find_admissible_delta(geom: WarpGeometry) -> float:
    """Supremum of the deltas keeping every margin positive on the scan's
    sample set; the suite default is half this value.  Each margin is
    affine in delta, A + delta B (A and B from the closed forms at delta =
    0 and 1), so this is the least -A/B where B < 0, or inf if B >= 0."""
    m = geom.params.m
    x = np.geomspace(*_SCAN_POINTS)
    weights = _comparison_weights(m, x)
    at0, at1 = _closed_forms(m, x, 0.0), _closed_forms(m, x, 1.0)
    A = np.concatenate([at0[k] / w for k, w in weights.items()])
    B = np.concatenate([at1[k] / w for k, w in weights.items()]) - A
    if not np.all((A > 0) | ((A == 0) & (B > 0))):
        raise RuntimeError("no positive margin even for tiny delta")
    falling = B < 0
    return float(np.min(-A[falling] / B[falling], initial=math.inf))


# -- manufactured solutions ----------------------------------------------------


@dataclass
class ManufacturedSolution:
    """Separated space-time test function u = p(t) phi(x) Y(angle).

    Y is a unit-normalized real spherical harmonic of degree l, so all
    angular integrals collapse to 1 and sigma^2 = l(l+1).  The solution is
    held as its two profiles: p and phi are callables (v, order) returning
    the order-th derivative (0, 1 or 2) at v, such as those of
    ``time_profile``, ``bump_profile`` and ``boundary_ramp_profile``.  The
    radial wave operator on a degree-l harmonic is
    -d_t^2 + d_x^2 + 2 (a'/a) d_x - l(l+1) a^{-2}, so

        Box u = -p'' phi + p radial(phi),
        radial(phi) = phi'' + 2 (a'/a) phi' - l(l+1) a^{-2} phi.

    ``verify_ibp`` integrates the profiles and ``radial`` directly.
    """

    name: str
    geom: WarpGeometry
    l: int
    p: object
    phi: object

    @property
    def sigma_sq(self) -> float:
        return float(self.l * (self.l + 1))

    def radial(self, x):
        geom, phi = self.geom, self.phi
        return (phi(x, 2) + 2.0 * geom.da(x) / geom.a(x) * phi(x, 1)
                - self.sigma_sq * geom.inv_a_sq(x) * phi(x, 0))


def time_profile(terms, const: float = 0.0):
    """const + Sum c e^{gamma t} sin(omega t + phase) over the terms
    (c, gamma, omega, phase), as a profile (t, order)."""

    def profile(t, order=0):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, const if order == 0 else 0.0)
        for c, gamma, omega, phase in terms:
            amp = c * np.exp(gamma * t)
            sin, cos = np.sin(omega * t + phase), np.cos(omega * t + phase)
            if order == 0:
                out += amp * sin
            elif order == 1:
                out += amp * (gamma * sin + omega * cos)
            else:
                out += amp * ((gamma**2 - omega**2) * sin + 2.0 * gamma * omega * cos)
        return out

    return profile


def bump_profile(center: float, width: float):
    """C-infinity bump exp(-1/(1 - s^2)), s = (x - center)/width, supported
    on (center - width, center + width), as a profile (x, order).

    With v = s^2 - 1, s1 = v' = 2 s/width and s2 = 2 s1, phi' = -s1 e^{1/v}/v^2
    and phi'' = (s1^2/v^2 + s1 s2/v - 2/width^2) e^{1/v}/v^2.  Each affine
    map s, s1, s2 is c x - d with c and d rounded to 15 significant digits
    on their own, as the corpus's first, symbolic form printed them.  The
    audit's finest identity gap is about 1e-7, so 1e-15 changes in these
    coefficients move its Richardson orders in the sixth digit: the orders
    recorded in perfbench/reference.json hold with them, while exact
    coefficients move ibp_interior-l0-sin by 3.25e-6.  The rounding costs
    the corpus's bumps up to 2.2e-13 of each derivative's maximum.
    """
    c, d = 1.0 / width, center / width
    maps = [(float(f"{k * a:.15g}"), float(f"{k * b:.15g}"))
            for k, a, b in ((1.0, c, d), (2.0, c * c, c * d), (4.0, c * c, c * d))]

    def profile(x, order=0):
        x = np.asarray(x, dtype=float)
        s = maps[0][0] * x - maps[0][1]
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        x, s = x[inside], s[inside]
        v = s * s - 1.0
        e = np.exp(1.0 / v)
        if order == 0:
            out[inside] = e
            return out
        s1 = maps[1][0] * x - maps[1][1]
        if order == 1:
            out[inside] = -s1 * e / v**2
        else:
            s2 = maps[2][0] * x - maps[2][1]
            out[inside] = (s1**2 / v**2 + s1 * s2 / v - maps[1][0]) * e / v**2
        return out

    return profile


def boundary_ramp_profile(x0: float, width: float):
    """(x - x0) (1 - step((x - x0 - width)/width)): vanishing at x0 with unit
    slope there, gone by x0 + 2 width; a profile (x, order)."""

    def profile(x, order=0):
        x = np.asarray(x, dtype=float)
        s = (x - x0 - width) / width
        # taper derivatives up to the order, then Leibniz on (x - x0) * taper
        taper = [1.0 - smooth_step(s)]
        taper += [-smooth_step(s, k) / width**k for k in range(1, order + 1)]
        out = (x - x0) * taper[order]
        return out + order * taper[order - 1] if order else out

    return profile


# the identity audit's window [0, _AUDIT_T] x [x0, _AUDIT_X_MAX] and its cells,
# _AUDIT_NX per unit of m in x, as the powers x^(2m) vary on the scale x / 2m
_AUDIT_T = 2.0
_AUDIT_X_MAX = 12.0
_AUDIT_NX = 400
_AUDIT_NT = 200


def make_corpus(geom: WarpGeometry) -> list[ManufacturedSolution]:
    """Five separated test solutions with varied degree, time profile and
    support (one attached to the wall so the wall flux term is exercised)."""
    x0 = geom.params.x0
    span = _AUDIT_X_MAX - x0
    mid = x0 + 0.45 * span
    far = x0 + 0.7 * span
    sin_t = time_profile([(1.0, 0.0, 1.0, 0.0)])
    entries = [
        ("interior-l0-sin", 0, sin_t, bump_profile(mid, 0.22 * span)),
        ("interior-l1-mixed", 1,
         time_profile([(1.0, 0.0, 2.0, 0.5 * math.pi), (0.5, 0.0, 1.0, 0.0)]),
         bump_profile(mid, 0.18 * span)),
        ("interior-l2-chirp", 2, time_profile([(1.0, -0.5, 2.0, 1.0)]),
         bump_profile(far, 0.2 * span)),
        ("interior-l5-sin", 5, time_profile([(1.0, 0.0, 3.0, 0.0)], 2.0),
         bump_profile(mid, 0.25 * span)),
        ("wall-l1-sin", 1, sin_t, boundary_ramp_profile(x0, 0.12 * span)),
    ]
    return [ManufacturedSolution(name, geom, l, p, phi) for name, l, p, phi in entries]


@dataclass
class IdentityReport:
    """Two-sided evaluation of the integrated multiplier identity."""

    lhs: float
    rhs: float
    gap: float
    terms: dict[str, float]


def verify_ibp(geom: WarpGeometry, pair: MultiplierPair, sol: ManufacturedSolution,
               T: float, x_max: float, nx: int = 800, nt: int = 400) -> IdentityReport:
    """Evaluate both sides of the integrated identity on tensor trapezoid
    quadrature over [0, T] x [x0, x_max] with nt and nx cells.  The test
    function must satisfy the wall condition u(t, x0) = 0; a violated trace
    is rejected with its measured size.

    Every integrand is a product of a function of t and a function of x,
    because u = p(t) phi(x), and the tensor trapezoid rule of such a
    product is the product of the two 1-D trapezoid sums.  Each term is
    therefore assembled from 1-D quadratures of the profiles: O(nt + nx)
    work and no space-time array.
    """
    x0 = geom.params.x0
    xs = np.linspace(x0, x_max, nx + 1)
    ts = np.linspace(0.0, T, nt + 1)
    dt = ts[1] - ts[0]
    dx = xs[1] - xs[0]
    p0, p1, p2 = (sol.p(ts, k) for k in range(3))
    phi0, phi1 = sol.phi(xs, 0), sol.phi(xs, 1)
    # max |p phi| over the grid is max |p| max |phi|, as rounding is monotone;
    # xs[0] is the wall
    p_max = float(np.abs(p0).max())
    scale = p_max * float(np.abs(phi0).max())
    trace = p_max * abs(float(phi0[0]))
    if scale > 0 and trace > 1e-10 * scale:
        raise ValueError(
            f"test function violates the wall condition: trace norm {trace:.3e} "
            f"against amplitude {scale:.3e}"
        )
    a2 = geom.a_sq(xs)
    d = pair.derivatives(xs)
    c = pair.coefficients(xs, d)

    def time_int(v):
        return float(np.trapezoid(v, dx=dt))

    def space_int(v):
        return float(np.trapezoid(v, dx=dx))

    # u = p phi, u_t = p' phi, u_x = p phi', f u_x + g u = p mult and
    # -Box u = p'' phi - p radial(phi)
    mult_a2 = (d["f"] * phi1 + d["g"] * phi0) * a2
    pp = time_int(p0 * p0)
    phi_mult = space_int(phi0 * mult_a2)
    phi_sq_a2 = phi0 * phi0 * a2
    lhs = time_int(p2 * p0) * phi_mult - pp * space_int(sol.radial(xs) * mult_a2)
    term_time = float(p1[-1] * p0[-1] - p1[0] * p0[0]) * phi_mult
    term_xx = pp * space_int(c["xx"] * phi1 * phi1 * a2)
    term_ang = pp * space_int(c["ang"] * sol.sigma_sq * geom.inv_a_sq(xs) * phi_sq_a2)
    term_tt = time_int(p1 * p1) * space_int(c["tt"] * phi_sq_a2)
    term_uu = pp * space_int(c["uu"] * phi_sq_a2)
    term_wall = 0.5 * float(d["f"][0] * a2[0] * phi1[0] ** 2) * pp

    rhs = term_time + term_xx + term_ang + term_tt + term_uu + term_wall
    return IdentityReport(
        lhs=lhs,
        rhs=rhs,
        gap=abs(lhs - rhs),
        terms={
            "time_boundary": term_time,
            "dx_sq": term_xx,
            "angular_sq": term_ang,
            "dt_sq": term_tt,
            "u_sq": term_uu,
            "wall_flux": term_wall,
        },
    )


def ibp_richardson(geom: WarpGeometry, pair: MultiplierPair,
                   sol: ManufacturedSolution) -> tuple[IdentityReport, float]:
    """The identity on the audit window at the coarse cell counts, and the
    order of its gap: log2 of its ratio to the gap at twice both counts.
    The coarse counts are 400 m x-cells and 200 t-cells: at 400 x-cells
    and m = 2 or 3 the x quadrature's error masks the O(dt^2) one."""
    nx = _AUDIT_NX * geom.params.m
    coarse = verify_ibp(geom, pair, sol, _AUDIT_T, _AUDIT_X_MAX, nx, _AUDIT_NT)
    fine = verify_ibp(geom, pair, sol, _AUDIT_T, _AUDIT_X_MAX, 2 * nx, 2 * _AUDIT_NT)
    return coarse, math.log2(coarse.gap / fine.gap) if fine.gap > 0 else math.inf


# -- Hardy inequality ------------------------------------------------------------


def hardy_check(geom: WarpGeometry, grid: Grid, u: np.ndarray) -> float:
    """Weighted-mass to derivative-energy ratio lhs / rhs for a
    wall-anchored function, 0.0 when rhs vanishes (u constant zero).

    lhs integrates a^{-2} u^2 over the volume (the a^2 factors cancel on
    the line); rhs integrates (d_x u)^2 dV.  The wall must lie on the
    positive side, where x <= a(x) anchors the inequality.
    """
    if grid.x_left <= 0:
        raise ValueError("the Hardy check requires a boundary at x0 > 0")
    h = grid.h
    x = grid.nodes()
    lhs = h * float(np.sum(u**2))
    du = fd_derivative(grid, u, 1)
    rhs = h * float(np.sum(du**2 * geom.a_sq(x)))
    return 0.0 if rhs <= 1e-300 else lhs / rhs


# the Hardy corpus: this many draws, each a sine series of this many terms
_HARDY_DRAWS = 64
_HARDY_TERMS = 12


def hardy_random_corpus(geom: WarpGeometry, grid: Grid, seed: int) -> list[float]:
    """Hardy ratios of a seeded family of admissible functions: random sine
    series on random wall-anchored subintervals, vanishing at both
    subinterval ends."""
    rng = np.random.default_rng(seed)
    x = grid.nodes()
    span = grid.x_right - grid.x_left
    k = np.arange(1, _HARDY_TERMS + 1)
    out = []
    for _ in range(_HARDY_DRAWS):
        L = span * rng.uniform(0.25, 0.9)
        coeff = rng.standard_normal(_HARDY_TERMS) / k
        s = (x - grid.x_left) / L
        u = np.zeros_like(x)
        inside = s <= 1.0
        # one sine table per draw: row i holds sin(k pi s_i) for k = 1.._HARDY_TERMS
        u[inside] = np.sin(np.multiply.outer(s[inside], k * np.pi)) @ coeff
        out.append(hardy_check(geom, grid, u))
    return out
