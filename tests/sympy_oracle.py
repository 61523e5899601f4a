"""Symbolic reference forms, built with sympy, for the closed-form
multipliers, manufactured solutions, smooth step and mode potentials of
warptrap.

Only the tests use sympy: each closed form in the package is checked
against the derivative sympy takes of the defining expression here.
"""

import numpy as np
import sympy as sp

from warptrap.geometry import WarpGeometry

FAMILY_NAMES = ("f", "df", "g", "dg", "d2g")
FIELD_NAMES = ("u", "ut", "ux", "box")


def step_expr(s: sp.Symbol) -> sp.Expr:
    """The smooth step on the open interval 0 < s < 1."""
    phi = sp.exp(-1 / s)
    psi = sp.exp(-1 / (1 - s))
    return phi / (phi + psi)


def bump_expr(s: sp.Symbol) -> sp.Expr:
    """The standard bump exp(-1/(1-s^2)) on |s| < 1."""
    return sp.exp(-1 / (1 - s**2))


def _lambdify(args, expr):
    fn = sp.lambdify(args, expr, modules="numpy")

    def wrapped(*values):
        values = [np.asarray(v, dtype=float) for v in values]
        with np.errstate(all="ignore"):
            out = np.asarray(fn(*values), dtype=float)
        return np.broadcast_to(out, np.broadcast_shapes(*(v.shape for v in values))).copy()

    return wrapped


def delta_family(m: int, delta: float) -> dict:
    """f, f', g, g', g'' of the interior multiplier family, each a callable
    of x, differentiated by sympy: f = x^2 / a^2 and g = (1/2) a^{-2} (a^2 f)'
    less the damping delta x^{2m+1} / (1 + x^{2m})^{2 + 1/m}."""
    x = sp.Symbol("x", positive=True)
    a2 = (1 + x ** (2 * m)) ** sp.Rational(1, m)
    f = x**2 / a2
    damping = x ** (2 * m + 1) / (1 + x ** (2 * m)) ** (2 + sp.Rational(1, m))
    g = sp.diff(a2 * f, x) / (2 * a2) - delta * damping
    exprs = (f, sp.diff(f, x), g, sp.diff(g, x), sp.diff(g, x, 2))
    return {name: _lambdify((x,), e) for name, e in zip(FAMILY_NAMES, exprs)}


def potential_slope(m: int, l: int):
    """dV_l/dx of V_l = l(l+1) a^-2 + a''/a, a callable of x, differentiated
    by sympy."""
    x = sp.Symbol("x")
    a = (1 + x ** (2 * m)) ** sp.Rational(1, 2 * m)
    return _lambdify((x,), sp.diff(l * (l + 1) / a**2 + sp.diff(a, x, 2) / a, x))


def _bump(x, center, width):
    s = sp.Symbol("s")
    core = bump_expr(s).subs(s, (x - center) / width)
    return sp.Piecewise((core, sp.Abs((x - center) / width) < 1), (0, True))


def _ramp(x, x0, width):
    s = sp.Symbol("s")
    taper = 1 - sp.Piecewise(
        (0, (x - x0 - width) / width <= 0),
        (1, (x - x0 - width) / width >= 1),
        (step_expr(s).subs(s, (x - x0 - width) / width), True),
    )
    return (x - x0) * taper


def corpus(geom: WarpGeometry, x_max: float = 12.0) -> dict:
    """The five solutions of ``multiplier.make_corpus``, by name, each a dict
    of callables (t, x) for u, u_t, u_x and Box u."""
    t, x = sp.symbols("t x")
    m = geom.params.m
    x0 = geom.params.x0
    span = x_max - x0
    mid = x0 + 0.45 * span
    far = x0 + 0.7 * span
    entries = [
        ("interior-l0-sin", 0, sp.sin(t), _bump(x, mid, 0.22 * span)),
        ("interior-l1-mixed", 1, sp.cos(2 * t) + sp.Rational(1, 2) * sp.sin(t),
         _bump(x, mid, 0.18 * span)),
        ("interior-l2-chirp", 2, sp.exp(-t / 2) * sp.sin(2 * t + 1),
         _bump(x, far, 0.2 * span)),
        ("interior-l5-sin", 5, sp.sin(3 * t) + 2, _bump(x, mid, 0.25 * span)),
        ("wall-l1-sin", 1, sp.sin(t), _ramp(x, x0, 0.12 * span)),
    ]
    a = (1 + x ** (2 * m)) ** sp.Rational(1, 2 * m)
    out = {}
    for name, l, p, phi in entries:
        u = p * phi
        box = (-sp.diff(p, t, 2) * phi
               + p * (sp.diff(phi, x, 2) + 2 * sp.diff(a, x) / a * sp.diff(phi, x))
               - p * l * (l + 1) / a**2 * phi)
        exprs = (u, sp.diff(u, t), sp.diff(u, x), box)
        out[name] = {k: _lambdify((t, x), e) for k, e in zip(FIELD_NAMES, exprs)}
    return out
