"""Confined near-eigenfunctions on the trapped side of the neck.

For a wall at x0 < 0 the per-mode potential V_l has its minimum at the
wall and climbs toward the neck, so the lowest Dirichlet eigenfunction
psi on (x0, 0) hugs the wall and decays through the classically
forbidden region.  Multiplying by a smooth cutoff chi that is 1 near the
wall and 0 near the neck, and normalizing,

    u = chi * psi / |chi psi|,

gives a compactly supported state whose eigen-equation residual is as
small as psi is in the cutoff's transition zone, i.e. exponentially
small in the angular frequency sigma.  This module builds these states,
brackets their frequencies, and fits the exponential decay rates of the
residual and of the tail mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .geometry import WarpGeometry
from .smoothstep import smooth_step
from .spectral import (
    Grid,
    build_operator,
    lowest_pair,
    quadrature_hk,
    quadrature_l2,
)

__all__ = [
    "BracketResult",
    "CutoffProfile",
    "DecayFit",
    "FitError",
    "Quasimode",
    "build_quasimode",
    "default_cutoff",
    "fit_exponential_rate",
    "interval_grid",
    "mode_operator",
    "quasimode_csv_rows",
    "QUASIMODE_CSV_COLUMNS",
]

# grid rule: at least this many nodes per 1/sigma length unit (h*sigma <= 0.05)
EIGEN_H_PER_SIGMA = 0.05


@dataclass(frozen=True)
class CutoffProfile:
    """Smooth cutoff: 1 on [x0, plateau_end], 0 on [support_end, 0]."""

    x0: float
    plateau_end: float
    support_end: float

    def __post_init__(self):
        if not (self.x0 < self.plateau_end < self.support_end < 0):
            raise ValueError("cutoff requires x0 < plateau_end < support_end < 0")
        if not self.plateau_end > self.x0 / 2:
            raise ValueError("cutoff plateau must cover [x0, x0/2]")

    @property
    def width(self) -> float:
        return self.support_end - self.plateau_end

    def chi(self, x):
        """Cutoff value; monotone nonincreasing transition."""
        return smooth_step((self.support_end - np.asarray(x, dtype=float)) / self.width)


def default_cutoff(x0: float) -> CutoffProfile:
    """Plateau through 0.4*x0 and support ending at 0.1*x0.

    The wide transition keeps the cutoff derivatives moderate, so the
    eigen-residual is dominated by the eigenfunction's own tail rather
    than by cutoff sharpness.
    """
    if x0 >= 0:
        raise ValueError("cutoff construction requires the trapped side, x0 < 0")
    return CutoffProfile(x0, 0.4 * x0, 0.1 * x0)


def interval_grid(geom: WarpGeometry, l: int, h_per_sigma: float) -> Grid:
    """Grid on (x0, 0) fine enough that h * sigma <= h_per_sigma for the
    mode-l frequency."""
    return Grid.for_sigma(geom.params.x0, 0.0, math.sqrt(l * (l + 1)), h_per_sigma)


def mode_operator(geom: WarpGeometry, l: int, grid: Grid):
    return build_operator(grid, lambda x: geom.potential(l, x),
                          potential_id=f"V_l(m={geom.params.m}, x0={geom.params.x0}, l={l})")


@dataclass(frozen=True)
class BracketResult:
    """The frequency bracket [V_l(x0), V_l(x0/2)] of one angular degree,
    and whether the lowest Dirichlet eigenvalue tau^2 on (x0, 0) lies in
    it."""

    V_at_x0: float
    V_at_half: float
    in_bracket: bool


@dataclass(frozen=True)
class Quasimode:
    """Cutoff-normalized near-eigenfunction and its certificates; ``u`` is
    read-only and ``residual_hk`` is a read-only mapping."""

    l: int
    sigma: float
    tau_sq: float
    u: np.ndarray
    grid: Grid
    cutoff: CutoffProfile
    residual_hk: MappingProxyType[int, float]
    agmon_ratio: float
    bracket: BracketResult

    @property
    def tau(self) -> float:
        return math.sqrt(self.tau_sq)

    def extend_to(self, grid_ext: Grid) -> np.ndarray:
        """Zero-extension of u onto an evolution grid sharing the spacing."""
        if abs(grid_ext.h - self.grid.h) > 1e-12 * self.grid.h:
            raise ValueError("extension grid must share the interval grid spacing")
        if abs(grid_ext.x_left - self.grid.x_left) > 1e-12:
            raise ValueError("extension grid must share the left endpoint")
        n = self.grid.n_interior
        out = np.zeros(grid_ext.n_interior)
        out[:n] = self.u
        return out


def build_quasimode(geom: WarpGeometry, l: int, grid_interval: Grid) -> Quasimode:
    """Construct the mode-l quasimode on the interval grid (x0, 0) with the
    default cutoff.

    Residual norms |(-d^2/dx^2 + V_l - tau^2) u| in H^k, k = 0, 1, 2, are
    computed on the interval grid; the tail ratio measures the
    eigenfunction mass where the cutoff is below 1.  The state is built
    whether or not tau^2 lies in its frequency bracket; ``bracket`` holds
    that verdict, and a caller that needs the bracket refuses the miss.
    """
    cutoff = default_cutoff(geom.params.x0)
    grid = grid_interval
    op = mode_operator(geom, l, grid)
    tau_sq, psi = lowest_pair(op)
    v_lo = float(geom.potential(l, geom.params.x0))
    v_hi = float(geom.potential(l, geom.params.x0 / 2))
    bracket = BracketResult(v_lo, v_hi, bool(v_lo <= tau_sq <= v_hi))
    x = grid.nodes()
    u_raw = cutoff.chi(x) * psi
    u = u_raw / quadrature_l2(grid, u_raw)
    resid_vec = op.apply(u) - tau_sq * u
    residual_hk = MappingProxyType({k: quadrature_hk(grid, resid_vec, k) for k in range(3)})
    u.flags.writeable = False
    tail_mask = x > cutoff.plateau_end
    agmon_ratio = quadrature_l2(grid, psi * tail_mask) / quadrature_l2(grid, psi)
    return Quasimode(
        l=l,
        sigma=math.sqrt(l * (l + 1)),
        tau_sq=tau_sq,
        u=u,
        grid=grid,
        cutoff=cutoff,
        residual_hk=residual_hk,
        agmon_ratio=float(agmon_ratio),
        bracket=bracket,
    )


class FitError(ValueError):
    """Raised when a decay fit is impossible or comes out non-decaying."""


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(quantity) against sigma (or tau)."""

    slope: float
    intercept: float
    r_squared: float
    n_excluded: int = 0


FLOOR = 1e-14

_QUANTITY_GETTERS = {
    "residual_h0": lambda q: q.residual_hk[0],
    "residual_h1": lambda q: q.residual_hk[1],
    "residual_h2": lambda q: q.residual_hk[2],
    "agmon": lambda q: q.agmon_ratio,
}


def fit_exponential_rate(
    quasimodes: list[Quasimode],
    quantity: str = "residual_h0",
    abscissa: str = "sigma",
) -> DecayFit:
    """Fit log(quantity) = intercept + slope * abscissa over the family.

    Values at or below the floating-point floor are excluded (reported via
    ``n_excluded``); an all-floored family is an error, as is a
    nonnegative slope.
    """
    if quantity not in _QUANTITY_GETTERS:
        raise ValueError(f"unknown quantity {quantity!r}")
    if abscissa not in ("sigma", "tau"):
        raise ValueError("abscissa must be 'sigma' or 'tau'")
    pts = []
    n_excluded = 0
    for qm in quasimodes:
        q = _QUANTITY_GETTERS[quantity](qm)
        s = qm.sigma if abscissa == "sigma" else qm.tau
        if q < FLOOR:
            n_excluded += 1
            continue
        pts.append((s, math.log(q)))
    if len({round(s, 12) for s, _ in pts}) < 5:
        if n_excluded and not pts:
            raise FitError(f"all {quantity} values sit at the floating-point floor")
        raise FitError("need at least 5 quasimodes with distinct frequencies above the floor")
    s = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(s, y, 1)
    resid = y - (intercept + slope * s)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    if slope >= 0:
        raise FitError(f"{quantity} fit slope {slope:.3e} is not negative")
    return DecayFit(float(slope), float(intercept), r2, n_excluded)


QUASIMODE_CSV_COLUMNS = [
    "l",
    "sigma",
    "tau_sq",
    "bracket_lo",
    "bracket_hi",
    "residual_h0",
    "residual_h1",
    "residual_h2",
    "agmon_ratio",
]


def quasimode_csv_rows(quasimodes: list[Quasimode]) -> list[list]:
    rows = []
    for qm in quasimodes:
        rows.append([
            qm.l,
            qm.sigma,
            qm.tau_sq,
            qm.bracket.V_at_x0,
            qm.bracket.V_at_half,
            qm.residual_hk[0],
            qm.residual_hk[1],
            qm.residual_hk[2],
            qm.agmon_ratio,
        ])
    return rows
