"""Exact spectral evolution of the Dirichlet wave problem, mode by mode.

Each retained angular mode evolves in the conjugated radial variable
w = a*u on a truncated domain (x0, X_max) with an artificial Dirichlet
wall at X_max.  After one full eigendecomposition of the mode operator
(the latest one is cached), evolution is exact in time: spectral
coefficients just rotate, so there is no CFL restriction, no
time-stepping error, and the discrete energy is conserved to roundoff.
The geometry is rotationally symmetric, so a state, ``ModeState``, is
one mode, and every reduction over time samples consumes one pass over
them, ``_sweep``: the confinement run, the near-energy history, the
space-time norms and the local-energy audit of the nontrapping side.
This module alone knows the layout of a sweep block, the packed [a | b]
phase rows and the raw product the energy-density kernel reads.

Domain truncation policy.  Every run names its wall X_max.  A run is
causally exact when the wall sits beyond the range any energy can
reach, X_max >= R + T; the default, strict mode refuses a shorter
domain.  Confinement experiments over long horizons use the audited
mode instead: the wall may sit inside the light cone, and the energy
reaching a buffer strip in front of the wall is measured and reported,
bounding the wall's influence on every reported quantity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import WarpGeometry
from .quasimode import Quasimode, mode_operator
from .spectral import (
    TILE,
    EigensolverError,
    Grid,
    ShellAccumulator,
    TridiagonalOperator,
    eigen_full,
)

__all__ = [
    "EVOLUTION_CSV_COLUMNS",
    "AuditResult",
    "EvolutionReport",
    "ModePropagator",
    "ModeState",
    "data_field",
    "dbk_norm",
    "er_history",
    "get_propagator",
    "le_bound_audit",
    "run_confinement",
    "space_time_norms",
    "wave_field",
]

EVOLUTION_H_PER_SIGMA = 0.2
# run_confinement recomputes the energy from grid values at every
# _DRIFT_STRIDE-th sample, as an independent check on conservation
_DRIFT_STRIDE = 256
# audited confinement runs measure the energy in the strip of this width in
# front of the wall, and pass when its maximum stays at or below _WALL_TOL
# times the total energy
_WALL_MARGIN = 2.0
_WALL_TOL = 1e-4


def _raw_product(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for real M and complex (n, k) X, as the real (2k, rows) array
    whose rows 2j and 2j + 1 are the real and imaginary parts of column j.

    A C-ordered complex (n, k) block viewed as float64 is the real (n, 2k)
    matrix X_r of interleaved real and imaginary columns, so one real GEMM
    gives the complex product, with no complex copy of M and no split or
    recombined parts.  The GEMM is X_r^T M^T, with M as the right-hand
    operand: for a large M and a narrow block it runs at full BLAS speed,
    where M @ X_r does not.
    """
    Xr = np.ascontiguousarray(X.reshape(X.shape[0], -1), dtype=complex).view(np.float64)
    return Xr.T @ M.T


def _real_matmul(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for real M and complex X: the raw product copied back into
    complex order."""
    out = np.ascontiguousarray(_raw_product(M, X).T).view(complex)
    return out.reshape(M.shape[0], *X.shape[1:])


class ModePropagator:
    """Eigendecomposition of one mode operator on an evolution grid.

    Every V_l is nonnegative, so the operator is positive definite and
    omega = sqrt(lambda) is real; a nonpositive eigenvalue raises
    ``EigensolverError`` naming the operator, its size and that eigenvalue.
    """

    def __init__(self, geom: WarpGeometry, l: int, grid: Grid):
        self.geom = geom
        self.l = l
        self.grid = grid
        self.op: TridiagonalOperator = mode_operator(geom, l, grid)
        self.evals, self.evecs = eigen_full(self.op)
        if self.evals[0] <= 0.0:
            raise EigensolverError(
                f"operator {self.op.potential_id!r} (n={self.op.n}) is not positive "
                f"definite: lowest eigenvalue {float(self.evals[0])!r}")
        self.omega = np.sqrt(self.evals)

    @property
    def h(self) -> float:
        return self.grid.h

    def to_spectral(self, v: np.ndarray) -> np.ndarray:
        """Spectral coefficients h * Phi^T v of grid data v, (n,) or (n, k).

        Only the rows from the data's first to its last nonzero row enter
        the product (a few hundred of thousands for compactly supported
        data); a NaN is nonzero, so it keeps its row and reaches the
        coefficients."""
        nz = np.flatnonzero((v != 0).reshape(v.shape[0], -1).any(axis=1))
        if nz.size == 0:
            return np.zeros((self.evecs.shape[1], *v.shape[1:]), complex)
        rows = slice(nz[0], nz[-1] + 1)
        return self.h * _real_matmul(self.evecs[rows].T, v[rows])

    def from_spectral(self, c: np.ndarray) -> np.ndarray:
        return _real_matmul(self.evecs, c)


# at most one entry: the latest propagator, keyed by (params, l, grid)
_PROP_CACHE: dict[tuple, ModePropagator] = {}


def get_propagator(geom: WarpGeometry, l: int, grid: Grid) -> ModePropagator:
    """Cached eigendecomposition.  The cache holds the latest propagator
    only; a new key empties it before the solve, so the cache never keeps
    a second n x n eigenvector matrix alive.  A live ``ModeState`` still
    keeps its own propagator alive."""
    key = (geom.params, l, grid)
    if key not in _PROP_CACHE:
        _PROP_CACHE.clear()
        _PROP_CACHE[key] = ModePropagator(geom, l, grid)
    return _PROP_CACHE[key]


@dataclass
class ModeState:
    """Spectral coefficients of one mode, split into the two half waves.

    c_plus rotates with phase exp(-i omega t), c_minus with the opposite
    phase; their sum is the coefficient vector of w and their weighted
    difference that of dt w.
    """

    prop: ModePropagator
    c_plus: np.ndarray
    c_minus: np.ndarray

    @classmethod
    def from_grid_data(cls, prop: ModePropagator, w0: np.ndarray, w1: np.ndarray) -> "ModeState":
        ab = prop.to_spectral(np.column_stack([w0, w1]).astype(complex, copy=False))
        ib_over = 1j * ab[:, 1] / prop.omega
        a = ab[:, 0]
        return cls(prop, 0.5 * (a + ib_over), 0.5 * (a - ib_over))

    # -- views ---------------------------------------------------------------

    @property
    def sigma_sq(self) -> float:
        return float(self.prop.l * (self.prop.l + 1))

    @property
    def grid(self) -> Grid:
        return self.prop.grid

    @property
    def geom(self) -> WarpGeometry:
        return self.prop.geom

    def a_coeff(self) -> np.ndarray:
        return self.c_plus + self.c_minus

    def b_coeff(self) -> np.ndarray:
        return -1j * self.prop.omega * (self.c_plus - self.c_minus)

    def w_grid(self) -> np.ndarray:
        return self.prop.from_spectral(self.a_coeff())

    def wt_grid(self) -> np.ndarray:
        return self.prop.from_spectral(self.b_coeff())

    def graph_sq(self, k: int) -> float:
        """|B^k data|_H^2 for the generator B(w, dt w) = (i dt w, -i P w):
        Sum 2 lambda^(k+1) (|c+|^2 + |c-|^2), as lambda |a|^2 + |b|^2 =
        2 lambda (|c+|^2 + |c-|^2) for a = c+ + c-, b = -i omega (c+ - c-)."""
        lam = self.prop.evals
        return 2.0 * float(
            np.sum(lam ** (k + 1) * (np.abs(self.c_plus) ** 2 + np.abs(self.c_minus) ** 2)))

    def energy_spectral(self) -> float:
        """Mode energy, half the squared energy norm; conserved exactly."""
        return 0.5 * self.graph_sq(0)

    def roundtrip_error(self, w0: np.ndarray, w1: np.ndarray) -> float:
        """Relative grid -> spectral -> grid reconstruction error of the data."""
        num = np.linalg.norm(self.w_grid() - w0) + np.linalg.norm(self.wt_grid() - w1)
        den = np.linalg.norm(w0) + np.linalg.norm(w1)
        return num / den if den > 0 else 0.0


def dbk_norm(state: ModeState, k: int) -> float:
    """Graph norm of the k-th generator power: |data| + |B^k data|.

    Warns when a generator power grows the norm by more than half the
    mode operator's sqrt(norm_bound), which signals grid-scale content:
    k exceeds the resolved discrete smoothness.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    norms = [math.sqrt(state.graph_sq(j)) for j in range(k + 1)]
    scale = math.sqrt(state.prop.op.norm_bound)
    for step in range(1, k + 1):
        prev, cur = norms[step - 1], norms[step]
        if prev > 0 and cur / prev > 0.5 * scale:
            warnings.warn(
                f"generator power {step} amplifies grid-scale content "
                f"(growth {cur / prev:.3e} vs spectral radius {scale**2:.3e}); "
                "k exceeds the resolved smoothness",
                stacklevel=2,
            )
    return norms[0] + norms[k]


def wave_field(geom: WarpGeometry, grid: Grid, entries) -> ModeState:
    """The state of one mode from its data tuple: ``entries`` is
    [(l, 1, w0, w1)], exactly one entry, of multiplicity 1."""
    if len(entries) != 1 or entries[0][1] != 1:
        raise ValueError("a field is one mode of multiplicity 1: entries must be "
                         "[(l, 1, w0, w1)]")
    l, _, w0, w1 = entries[0]
    return ModeState.from_grid_data(get_propagator(geom, l, grid), w0, w1)


# -- confinement experiments ---------------------------------------------------


@dataclass
class EvolutionReport:
    """Sampled observables of one evolution run."""

    times: np.ndarray
    E: float
    E_R: np.ndarray
    ratio_E_R: np.ndarray
    duhamel_gap: np.ndarray
    le1_running: np.ndarray | None
    le1_times: np.ndarray | None
    t_confinement: float
    half_bound_ok: bool
    f_norm: float
    data_h_norm: float
    wall_buffer_max: float
    wall_ok: bool
    energy_drift: float
    grid: Grid
    tau: float

    def csv_rows(self) -> list[list]:
        le1 = self._le1_on_times()
        rows = []
        for i, t in enumerate(self.times):
            rows.append([t, self.E, self.E_R[i], self.ratio_E_R[i],
                         le1[i], self.duhamel_gap[i]])
        return rows

    def _le1_on_times(self) -> np.ndarray:
        if self.le1_running is None:
            return np.full(self.times.shape, math.nan)
        return np.interp(self.times, self.le1_times, self.le1_running)

    def le1_at(self, T: float) -> float:
        if self.le1_running is None:
            raise ValueError("run was made without the space-time norm pass")
        return float(np.interp(T, self.le1_times, self.le1_running))


EVOLUTION_CSV_COLUMNS = ["t", "E", "E_R", "ratio_E_R", "LE1_running", "duhamel_gap"]


def _phase_block(cp, cm, omega, t0, dt, m):
    """Coefficient matrices of w and dt w at the m times t0 + dt * j, packed
    side by side as [a(t) | b(t)] in one (n, 2m) array, so that a single
    ``from_spectral`` call reconstructs both.

    The phase exp(-i omega (t0 + dt (8 q + r))) is the product of an
    n x ceil(m/8) table over q and an n x 8 table over r, so a tile takes
    n * (ceil(m/8) + 8) exponentials instead of n * m.  The cp- and
    cm-weighted half waves P and M of each 8-column group are formed in two
    n x 8 buffers, and a = P + M, b = -i omega (P - M) are written straight
    into the packed array.
    """
    n = omega.size
    AB = np.empty((n, 2 * m), complex)
    iw = -1j * omega
    coarse = np.exp(np.multiply.outer(iw, t0 + 8.0 * dt * np.arange((m + 7) // 8)))
    fine = np.exp(np.multiply.outer(iw, dt * np.arange(min(m, 8))))
    cp_q = cp[:, None] * coarse
    cm_q = cm[:, None] * coarse.conj()
    fine_m = fine.conj()
    P, M = np.empty_like(fine), np.empty_like(fine)
    for q, j in enumerate(range(0, m, 8)):
        k = min(8, m - j)
        p, mm = P[:, :k], M[:, :k]
        np.multiply(cp_q[:, q, None], fine[:, :k], out=p)
        np.multiply(cm_q[:, q, None], fine_m[:, :k], out=mm)
        np.add(p, mm, out=AB[:, j:j + k])
        p -= mm
        np.multiply(p, iw[:, None], out=AB[:, m + j:m + j + k])
    return AB


# -- energy density ------------------------------------------------------------
#
# The energy density is evaluated by the one kernel below, which every tiled
# pass over the samples shares.


def _warp_factors(geom, grid) -> tuple[np.ndarray, np.ndarray]:
    """Nodal a'/a and a^{-2}, computed once per pass."""
    x = grid.nodes()
    return geom.da(x) / geom.a(x), geom.inv_a_sq(x)


def _densities(R: np.ndarray, h: float, ratio: np.ndarray,
               pot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|w|^2 and the energy density |dt w|^2 + |dx w - (a'/a) w|^2 + pot |w|^2
    of m samples, each (m, rows), from the raw product R (4m, rows) of a
    packed [a | b] block: rows 2j, 2j + 1 hold Re, Im of w at sample j and
    rows 2m + 2j, 2m + 2j + 1 those of dt w.

    Every term is a sum of squares of real rows, |z|^2 = Re^2 + Im^2, so
    the centred stencil (Dirichlet ghost zeros beyond both ends of the
    rows) and the squares act on R as it is, overwriting it, and adjacent
    row pairs are summed at the end.
    """
    k = R.shape[0] // 2
    W, e = R[:k], R[k:]
    dW = np.zeros_like(W)
    dW[:, :-1] = W[:, 1:]
    dW[:, 1:] -= W[:, :-1]
    dW /= 2.0 * h
    dW -= ratio * W
    dW *= dW
    e *= e
    e += dW
    W *= W
    np.multiply(W, pot, out=dW)
    e += dW
    del dW  # free this temporary before the pair sums are allocated
    return W[0::2] + W[1::2], e[0::2] + e[1::2]


def _rotation_gap(AB, a0, b0, evals, ph):
    """Energy-norm distance of each packed [a | b] sample from the pure
    phase rotation (a0, b0) * ph.

    One complex n x m buffer holds each half's difference in turn, and one
    ``einsum`` over its float64 view (real and imaginary parts in adjacent
    columns) reduces it, with no |.|^2 temporaries."""
    m = ph.size
    D = np.multiply.outer(a0, ph)
    D -= AB[:, :m]
    Dr = D.view(np.float64)
    sq = np.einsum("ij,ij,i->j", Dr, Dr, evals)
    np.multiply.outer(b0, ph, out=D)
    D -= AB[:, m:]
    sq += np.einsum("ij,ij->j", Dr, Dr)
    return np.sqrt(sq[0::2] + sq[1::2])


def _band_energy(prop: ModePropagator, AB, lo: int, hi: int, ratio, pot) -> np.ndarray:
    """Energy |dt w|^2 + |dx w - (a'/a) w|^2 + pot |w|^2 integrated over the
    node band [lo, hi), one value per packed [a | b] sample.

    Only the band's rows are reconstructed, plus one neighbor row on each
    side for the derivative stencil; where the band touches an end of the
    grid that neighbor is the Dirichlet ghost zero.
    """
    lo0, hi0 = max(lo - 1, 0), min(hi + 1, prop.grid.n_interior)
    _, e = _densities(_raw_product(prop.evecs[lo0:hi0], AB), prop.h,
                      ratio[lo0:hi0], pot[lo0:hi0])
    return 0.5 * prop.h * np.sum(e[:, lo - lo0:hi - lo0], axis=1)


def _sample_times(T: float, dt: float | None, h: float) -> tuple[float, np.ndarray]:
    """The sample step of every evolution pass, dt or by default
    max(T / 1000, h) on a grid of spacing h, and its sample times
    step * i, i = 0, ..., round(T / step)."""
    if dt is None:
        dt = max(T / 1000.0, h)
    return dt, dt * np.arange(int(round(T / dt)) + 1)


def _sweep(mode: ModeState, times: np.ndarray, dt: float, k: int = 1, bands=(),
           whole: bool = False, tau: float | None = None):
    """The one evolution pass over the samples ``times`` = dt * i of a mode.

    The blocks are uniform, at most TILE samples of step k * dt: block r of
    each span of k * TILE samples holds the samples r, r + k, ...  With
    ``whole``, block 0 of each span is reconstructed on the whole grid,
    which also gives its densities |w|^2 and the energy density, each
    (samples, n); the other blocks only on the node bands [lo, hi) of
    ``bands``.  With ``tau``, each block's phases also give its Duhamel gap,
    the energy-norm distance from the data rotated by exp(-i tau t).

    Yields per block (idx, energies, u, e, gap): its slice of ``times``, the
    energy in each band, the whole-grid densities or None, and the gap or
    None.  A consumer drops u and e before it asks for the next block, so
    that one block's densities are live at a time.
    """
    prop, h = mode.prop, mode.grid.h
    ratio, inv_a2 = _warp_factors(mode.geom, mode.grid)
    pot = mode.sigma_sq * inv_a2
    if tau is not None:
        a0, b0 = mode.a_coeff(), mode.b_coeff()
    for c0 in range(0, times.size, k * TILE):
        for r in range(min(k, times.size - c0)):
            idx = slice(c0 + r, c0 + k * TILE, k)
            tc = times[idx]
            AB = _phase_block(mode.c_plus, mode.c_minus, prop.omega, tc[0], k * dt, tc.size)
            gap = None if tau is None else _rotation_gap(AB, a0, b0, prop.evals,
                                                          np.exp(-1j * tau * tc))
            if whole and r == 0:
                W = _raw_product(prop.evecs, AB)
                del AB  # free the block before the densities' temporaries
                u, e = _densities(W, h, ratio, pot)
                del W
                yield idx, [0.5 * h * np.sum(e[:, lo:hi], axis=1) for lo, hi in bands], u, e, gap
                del u, e  # free this block's densities before the next is built
            else:
                energies = [_band_energy(prop, AB, lo, hi, ratio, pot) for lo, hi in bands]
                del AB  # free this block before the next one is built
                yield idx, energies, None, None, gap


def _feed_le1(acc: ShellAccumulator, times: np.ndarray, u: np.ndarray, e: np.ndarray) -> None:
    """Add a block's densities to the LE1 accumulator; the order-one density
    e + <x>^-2 |w|^2 is formed in place in e."""
    e += acc.inv_bracket_sq * u
    acc.add(times, u, e)


def data_field(geom: WarpGeometry, qm: Quasimode, grid_ext: Grid) -> ModeState:
    """The quasimode data (v, -i tau v), zero-extended onto the evolution grid."""
    u_ext = qm.extend_to(grid_ext)
    prop = get_propagator(geom, qm.l, grid_ext)
    return ModeState.from_grid_data(prop, u_ext.astype(complex), -1j * qm.tau * u_ext)


def _energy_drift(mode: ModeState, dt: float, m: int) -> float:
    """Largest relative deviation, over the m sample times dt * j, of the
    energy recomputed from full-grid values from the conserved spectral
    energy: an independent check on conservation, one reconstruction for
    all."""
    prop = mode.prop
    E = mode.energy_spectral()
    WW = prop.from_spectral(_phase_block(mode.c_plus, mode.c_minus, prop.omega, 0.0, dt, m))
    drift = 0.0
    for w, wt in zip(WW[:, :m].T, WW[:, m:].T):
        e = 0.5 * (prop.op.quad_form(w) + prop.h * float(np.sum(np.abs(wt) ** 2)))
        drift = max(drift, abs(e - E) / E)
    return drift


def _le_stride(T_max: float, dt: float, dt_le: float | None) -> int:
    """Samples per LE1 sample: dt_le / dt, which must be whole, or by
    default the largest whole k with k * dt <= T_max / 500, at least 1."""
    if dt_le is None:
        return max(1, math.floor(T_max / (500.0 * dt) + 1e-9))
    k = round(dt_le / dt)
    if k < 1 or abs(k * dt - dt_le) > 1e-9 * dt_le:
        raise ValueError(f"dt_le={dt_le!r} is not a whole multiple of dt={dt!r}")
    return k


def run_confinement(
    geom: WarpGeometry,
    qm: Quasimode,
    T_max: float,
    R: float,
    x_max: float,
    dt: float | None = None,
    causal: str = "strict",
    le1: bool = False,
    dt_le: float | None = None,
) -> EvolutionReport:
    """Evolve the quasimode data (v, -i tau v) and track the near energy.

    In strict mode the domain must satisfy X_max >= R + T_max; runs with a
    shorter domain are rejected.  In audited mode the wall may be closer
    and the maximal energy found in the buffer strip of width
    ``_WALL_MARGIN`` in front of the wall is reported; ``wall_ok`` records
    whether it stayed below ``_WALL_TOL`` times the total energy, which
    caps the wall's possible effect on the near-region energy at the
    sub-percent level.

    With ``le1`` the running LE1 norm is sampled at every k-th sample time,
    k * dt for k = dt_le / dt, which must be whole; by default k is the
    largest whole number with k * dt <= T_max / 500, at least 1 (so
    dt_le = max(dt, T_max / 500) whenever T_max / (500 dt) is whole or
    below 1).  The LE1 samples end at the last multiple of k * dt at or
    below T_max.  Each sample is reconstructed once: the LE1 samples on the
    whole grid, which gives their E_R and wall energies too, the others on
    the E_R and wall bands only.
    """
    if causal not in ("strict", "audited"):
        raise ValueError("causal must be 'strict' or 'audited'")
    if qm.cutoff.support_end >= R:
        raise ValueError("quasimode data must be supported inside [x0, R)")
    if causal == "strict" and x_max < R + T_max:
        raise ValueError(
            f"domain too short for a causally exact run: x_max={x_max} < "
            f"R + T_max = {R + T_max}; enlarge the domain or use causal='audited'"
        )
    grid_ext = qm.grid.extended(x_max)
    dt, times = _sample_times(T_max, dt, grid_ext.h)
    k = _le_stride(T_max, dt, dt_le) if le1 else 1
    mode = data_field(geom, qm, grid_ext)
    prop = mode.prop
    u_ext = qm.extend_to(grid_ext)
    f_vec = prop.op.apply(u_ext) - qm.tau_sq * u_ext
    f_norm = math.sqrt(grid_ext.h * float(np.sum(f_vec**2)))

    x = grid_ext.nodes()
    nR = int(np.searchsorted(x, R, side="right"))
    n_buf = int(np.searchsorted(x, grid_ext.x_right - _WALL_MARGIN, side="left"))
    acc = ShellAccumulator(grid_ext) if le1 else None

    # one sweep of step k * dt; with le1 its whole-grid blocks are the LE1
    # samples, whose densities also feed the accumulator
    E_R, wall, gap = (np.empty(times.size) for _ in range(3))
    bands = ((0, nR), (n_buf, grid_ext.n_interior))
    for idx, (er, wl), u, e, g in _sweep(mode, times, dt, k, bands, whole=le1, tau=qm.tau):
        E_R[idx], wall[idx], gap[idx] = er, wl, g
        if u is not None:
            _feed_le1(acc, times[idx], u, e)
        del u, e  # free this block's densities before the next is built
    E_spec = mode.energy_spectral()
    data_h_norm = math.sqrt(2.0 * E_spec)

    le1_running = le1_times = None
    if le1:
        norms, le1_running = acc.finish()
        le1_times = norms.times

    ratio_E_R = E_R / E_R[0]
    below = np.nonzero(E_R < 0.5 * E_R[0])[0]
    t_conf = float(times[below[0]]) if below.size else math.inf
    half_ok = bool(np.all(np.sqrt(E_R) >= 0.5 * data_h_norm))
    wall_max = float(wall.max())
    return EvolutionReport(
        times=times,
        E=E_spec,
        E_R=E_R,
        ratio_E_R=ratio_E_R,
        duhamel_gap=gap,
        le1_running=le1_running,
        le1_times=le1_times,
        t_confinement=t_conf,
        half_bound_ok=half_ok,
        f_norm=f_norm,
        data_h_norm=data_h_norm,
        wall_buffer_max=wall_max,
        wall_ok=bool(wall_max <= _WALL_TOL * E_spec),
        energy_drift=_energy_drift(mode, _DRIFT_STRIDE * dt, times[::_DRIFT_STRIDE].size),
        grid=grid_ext,
        tau=qm.tau,
    )


def space_time_norms(state: ModeState, T: float, dt: float):
    """Dyadic space-time norms of the homogeneous evolution sampled at dt * i
    in [0, T], and the running LE1: (LeNorms, running LE1).

    One sweep with every sample reconstructed on the whole grid, TILE
    samples at a time, which is what makes wide frequency families
    affordable.
    """
    acc = ShellAccumulator(state.grid)
    _, times = _sample_times(T, dt, state.grid.h)
    for idx, _, u, e, _ in _sweep(state, times, dt, whole=True):
        _feed_le1(acc, times[idx], u, e)
        del u, e  # free this block's densities before the next is built
    return acc.finish()


@dataclass
class AuditResult:
    """Both sides of the interior local-energy bound and of the global one;
    both right-hand sides are the (conserved) initial energy E0."""

    lhs_lelocal: float
    ratio_lelocal: float
    lhs_lepositive: float
    ratio_lepositive: float
    le1: float
    E0: float


def le_bound_audit(state: ModeState, T: float, dt: float) -> AuditResult:
    """Evaluate the audited inequalities of the nontrapping side on the
    homogeneous evolution of one mode, sampled at t = 0, dt, ..., T.

    lhs_lelocal carries the interior weights x^{-2m-1} (gradient and time
    derivative), x^{-1} a^{-2} (angular term) and x^{-2m-3} (|u|^2);
    lhs_lepositive is LE1^2 + E0.  Both are reduced from one sweep, whose
    energy density carries the angular term sigma^2 a^{-2} |w|^2; the local
    side moves the difference of the two angular weights onto |w|^2, and
    each block's densities then feed LE1 as in ``space_time_norms``.
    """
    geom = state.geom
    if geom.params.x0 <= 0:
        raise ValueError("the local-energy audit applies to the x0 > 0 side")
    x = state.grid.nodes()
    m = geom.params.m
    inv_a2 = geom.inv_a_sq(x)
    w_grad = x ** (-2.0 * m - 1.0)
    # the angular term sigma^2 a^{-2} |w|^2 takes the weight x^{-1} a^{-2}, so
    # sigma^2 |w|^2 takes ang * w_grad = x^{-1} a^{-4}, of which e @ w_grad
    # already gives a^{-2} w_grad
    ang = x ** (2.0 * m) * inv_a2 ** 2
    w_u = x ** (-2.0 * m - 3.0) + state.sigma_sq * (ang - inv_a2) * w_grad
    _, times = _sample_times(T, dt, state.grid.h)
    acc = ShellAccumulator(state.grid)
    rows = []
    for idx, _, u, e, _ in _sweep(state, times, dt, whole=True):
        rows.extend(state.grid.h * (e @ w_grad + u @ w_u))
        _feed_le1(acc, times[idx], u, e)  # overwrites e, so after the local rows
        del u, e  # free this block's densities before the next is built
    lhs_local = float(np.trapezoid(rows, times))
    le1 = acc.finish()[0].le1
    E0 = state.energy_spectral()
    lhs_pos = le1**2 + E0

    def ratio(lhs):
        if E0 > 0:
            return lhs / E0
        return 0.0 if lhs == 0 else math.inf

    return AuditResult(
        lhs_lelocal=lhs_local,
        ratio_lelocal=ratio(lhs_local),
        lhs_lepositive=lhs_pos,
        ratio_lepositive=ratio(lhs_pos),
        le1=le1,
        E0=E0,
    )


def er_history(state: ModeState, T_max: float, R: float,
               dt: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sampled near-region energy of a mode: (times, E_R).

    E_R integrates the energy density over x <= R with the finite-difference
    gradient, reconstructed on the rows up to R only.
    """
    grid = state.grid
    if R <= grid.x_left:
        raise ValueError("R must exceed the boundary location")
    nR = int(np.searchsorted(grid.nodes(), R, side="right"))
    dt, times = _sample_times(T_max, dt, grid.h)
    E_R = np.empty(times.size)
    for idx, (er,), _, _, _ in _sweep(state, times, dt, bands=((0, nR),)):
        E_R[idx] = er
    return times, E_R
