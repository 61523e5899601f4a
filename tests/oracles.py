"""Reference evaluators that the tests compare warptrap against.

Each works one state or one sample at a time, in the plainest form of its
definition, where the package computes the same quantity in tiled passes
or closed forms: the rotation of one state's (a, b) and forced propagation by
variation of constants, per-state energies and space-time norms, per-shell
sums, the fields of a manufactured solution, and the flux densities of the
multiplier identity.  The frequency bracket check, with its square-well
bound and the monotonicity window of its hypotheses, lives here too: the
package checks only the bracket itself, inside ``build_quasimode``.  No
command runs any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from warptrap.evolve import ModeState, _warp_factors
from warptrap.geometry import WarpGeometry
from warptrap.quasimode import EIGEN_H_PER_SIGMA, interval_grid, mode_operator
from warptrap.spectral import Grid, LeNorms, lowest_pair

# -- propagation -----------------------------------------------------------------


def advanced(state: ModeState, dt: float) -> ModeState:
    """The state after time dt: each eigencomponent's (a, b) rotated to
    (cos(omega dt) a + sin(omega dt) b / omega,
    cos(omega dt) b - omega sin(omega dt) a)."""
    omega = state.prop.omega
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    return ModeState(state.prop, c * state.a + s / omega * state.b,
                     c * state.b - omega * s * state.a)


@dataclass
class ForcingSpec:
    """Second-component forcing: per-mode spatial profile times time profile.

    Each entry is (l, profile, time_fn) with the profile given in the
    conjugated variable on the evolution grid.
    """

    entries: list[tuple[int, np.ndarray, object]]
    substeps: int = 4


def propagate(state: ModeState, dt: float, steps: int,
              forcing: ForcingSpec | None = None) -> list[ModeState]:
    """Sampled evolution of one mode at times i*dt, i = 0..steps, with the
    data ``state`` at time 0.

    Homogeneous evolution is exact per eigencomponent; forcing enters
    through the variation-of-constants integral with trapezoid quadrature
    in the source time (``forcing.substeps`` subsamples per output step):
    with C and S the integrals of cos(omega s) g(s) and sin(omega s) g(s)
    up to t, a forced profile f adds sin(omega (t - s)) f / omega, that is
    (sin(omega t) C - cos(omega t) S) f / omega, to a and
    (cos(omega t) C + sin(omega t) S) f to b.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    out = [ModeState(state.prop, state.a.copy(), state.b.copy())]
    for i in range(1, steps + 1):
        out.append(advanced(state, i * dt))
    if forcing is None:
        return out
    nsub = max(1, int(forcing.substeps))
    ds = dt / nsub
    omega = state.prop.omega
    for l, profile, fn in forcing.entries:
        if l != state.prop.l:
            continue
        fhat = state.prop.to_spectral(np.asarray(profile, dtype=complex))
        # running trapezoids of cos(omega s) g(s) and sin(omega s) g(s), per
        # eigencomponent, carried across output steps one block of substeps
        # at a time
        cos_prev = np.full(omega.size, complex(fn(0.0)))
        sin_prev = np.zeros(omega.size, complex)
        C = np.zeros(omega.size, complex)
        S = np.zeros(omega.size, complex)
        for i in range(1, steps + 1):
            s = ds * np.arange((i - 1) * nsub + 1, i * nsub + 1)
            g = np.asarray([fn(si) for si in s], dtype=complex)
            phase = np.outer(omega, s)
            cs, sn = np.cos(phase) * g[None, :], np.sin(phase) * g[None, :]
            C += np.trapezoid(np.column_stack([cos_prev, cs]), dx=ds, axis=1)
            S += np.trapezoid(np.column_stack([sin_prev, sn]), dx=ds, axis=1)
            cos_prev, sin_prev = cs[:, -1], sn[:, -1]
            c, sin_t = np.cos(omega * (i * dt)), np.sin(omega * (i * dt))
            out[i].a = out[i].a + (sin_t * C - c * S) * fhat / omega
            out[i].b = out[i].b + (c * C + sin_t * S) * fhat
    return out


# -- per-state norms -------------------------------------------------------------
#
# These evaluators take ``ModeState``s, a history with its sample times
# given explicitly.  The energy density is formed here, one state at a time,
# on complex nodal values with its own centred stencil, and shares no code
# with the package's kernel, ``evolve._densities``, which the tests hold
# against it.


def _state_densities(w, wt, h, ratio, pot) -> tuple[np.ndarray, np.ndarray]:
    """|w|^2 and the energy density |dt w|^2 + |dx w - (a'/a) w|^2 +
    pot |w|^2 of one mode's complex nodal w and dt w; the centred difference
    takes the Dirichlet ghost zeros beyond both ends of the grid."""
    padded = np.concatenate([[0.0], w, [0.0]])
    dx = (padded[2:] - padded[:-2]) / (2.0 * h)
    u = np.abs(w) ** 2
    return u, np.abs(wt) ** 2 + np.abs(dx - ratio * w) ** 2 + pot * u


def quad_form(op, v: np.ndarray) -> float:
    """h-weighted quadratic form h * Re <v, P v> of the operator P; the
    discrete Dirichlet energy of the mode."""
    return float(np.real(np.vdot(v, op.apply(v))) * op.grid.h)


def energy_norms(state: ModeState, R: float) -> dict:
    """Total energy E, near-region energy E_R, and the data norm on the
    energy space.

    E uses the operator quadratic form (exactly conserved by the spectral
    propagator); E_R integrates the energy density over x <= R with the
    finite-difference gradient.
    """
    x0 = state.grid.x_left
    if R <= x0:
        raise ValueError(f"truncation radius R={R} must exceed the boundary x0={x0}")
    h = state.grid.h
    ratio, inv_a2 = _warp_factors(state.geom, state.grid)
    w = state.w_grid()
    wt = state.wt_grid()
    E = 0.5 * (h * float(np.sum(np.abs(wt) ** 2)) + quad_form(state.prop.op, w))
    _, dens = _state_densities(w, wt, h, ratio, state.sigma_sq * inv_a2)
    E_R = 0.5 * h * float(np.sum(dens[state.grid.nodes() <= R]))
    return {"E": E, "E_R": E_R, "H_x0_norm": math.sqrt(2.0 * E)}


def le_norms(history, times):
    """LE, LE^1 and the dual LE* norm of a sampled evolution: the states
    ``history``, one per sample time of ``times``, in time order.  The
    order-one density takes its own weight <x>^-2 = 1 / (1 + x^2), and the
    shells and time integrals are summed here, by ``shell_sums`` and the
    trapezoid rule, apart from the package's accumulator."""
    history = list(history)
    if not history:
        raise ValueError("empty history")
    grid = history[0].grid
    x = grid.nodes()
    ratio, inv_a2 = _warp_factors(history[0].geom, grid)
    U, E1 = [], []
    for state, _ in zip(history, times, strict=True):
        u, e1 = _state_densities(state.w_grid(), state.wt_grid(), grid.h, ratio,
                                 state.sigma_sq * inv_a2 + 1.0 / (1.0 + x * x))
        U.append(shell_sums(grid, u))
        E1.append(shell_sums(grid, e1))
    t = np.asarray(times, dtype=float)
    U, E1 = (np.trapezoid(np.asarray(A), t, axis=0) for A in (U, E1))
    j = np.arange(U.size)
    return LeNorms(le=float(np.max(2.0 ** (-0.5 * j) * np.sqrt(U))),
                   le1=float(np.max(2.0 ** (-0.5 * j) * np.sqrt(E1))),
                   le_star=float(np.sum(2.0 ** (0.5 * j) * np.sqrt(U))), times=t)


def shell_sums(grid, density: np.ndarray) -> np.ndarray:
    """h-weighted sum of a nodal density over each dyadic shell: node x
    belongs to shell floor(log2 <x>), <x> = sqrt(1 + x^2)."""
    x = grid.nodes()
    index = np.floor(np.log2(np.sqrt(1.0 + x * x))).astype(int)
    out = np.zeros(index.max() + 1)
    np.add.at(out, index, density * grid.h)
    return out


# -- multiplier identity ---------------------------------------------------------
#
# The fields of a manufactured solution u = p(t) phi(x) at (t, x), t
# broadcast against x; ``verify_ibp`` integrates the profiles instead.


def u(sol, t, x):
    return sol.p(t, 0) * sol.phi(x, 0)


def ut(sol, t, x):
    return sol.p(t, 1) * sol.phi(x, 0)


def ux(sol, t, x):
    return sol.p(t, 0) * sol.phi(x, 1)


def box(sol, t, x):
    """Box u = -p'' phi + p radial(phi)."""
    return -sol.p(t, 2) * sol.phi(x, 0) + sol.p(t, 0) * sol.radial(x)


def flux_integrands(geom, pair, sol):
    """Densities I1 (time flux) and I2 (radial flux) whose divergence form
    reassembles the integrated identity; angular integrals collapsed."""
    sig2 = sol.sigma_sq

    def I1(tv, xv):
        a2 = geom.a_sq(xv)
        d = pair.derivatives(xv)
        return -ut(sol, tv, xv) * (d["f"] * ux(sol, tv, xv) + d["g"] * u(sol, tv, xv)) * a2

    def I2(tv, xv):
        a2 = geom.a_sq(xv)
        d = pair.derivatives(xv)
        u0, u_t, u_x = u(sol, tv, xv), ut(sol, tv, xv), ux(sol, tv, xv)
        ang = sig2 * u0**2 / a2
        return (0.5 * (u_t**2 + u_x**2 - ang) * d["f"] * a2
                + u0 * u_x * d["g"] * a2
                - 0.5 * d["dg"] * u0**2 * a2)

    return I1, I2


# -- frequency bracket -----------------------------------------------------------


def potential_is_monotone(geom: WarpGeometry, l: int) -> bool:
    """Whether V_l is strictly increasing on [x0, x0/2] (x0 < 0), sampled at
    257 points."""
    x0 = geom.params.x0
    if x0 >= 0:
        raise ValueError("monotonicity window [x0, x0/2] requires x0 < 0")
    xs = np.linspace(x0, x0 / 2, 257)
    return bool(np.all(np.diff(geom.potential(l, xs)) > 0))


@dataclass(frozen=True)
class BracketCheck:
    """Frequency bracket check for one angular degree.

    ``below_threshold`` is True when the hypotheses that make the bracket
    argument run (potential increasing on [x0, x0/2] and the square-well
    bound fitting under V(x0/2)) fail at this l; the computed numbers are
    still reported.
    """

    l: int
    V_at_x0: float
    V_at_half: float
    V_at_threequarters_bound: float
    tau_sq: float
    in_bracket: bool
    below_threshold: bool


def bracket_check(geom: WarpGeometry, l: int, n: int | None = None) -> BracketCheck:
    """Locate the lowest Dirichlet eigenvalue on (x0, 0), on n interior
    nodes or else the quasimode grid, and test the bracket [V(x0), V(x0/2)]
    plus the square-well upper bound V(3 x0/4) + 16 pi^2 / x0^2."""
    x0 = geom.params.x0
    if x0 >= 0:
        raise ValueError("bracket check requires the trapped side, x0 < 0")
    grid = interval_grid(geom, l, EIGEN_H_PER_SIGMA) if n is None else Grid(x0, 0.0, n)
    tau_sq, _ = lowest_pair(mode_operator(geom, l, grid))
    v_lo = float(geom.potential(l, x0))
    v_hi = float(geom.potential(l, x0 / 2))
    swb = float(geom.potential(l, 3 * x0 / 4)) + 16.0 * math.pi**2 / x0**2
    return BracketCheck(
        l=l,
        V_at_x0=v_lo,
        V_at_half=v_hi,
        V_at_threequarters_bound=swb,
        tau_sq=tau_sq,
        in_bracket=bool(v_lo <= tau_sq <= v_hi),
        below_threshold=not (potential_is_monotone(geom, l) and swb <= v_hi),
    )
