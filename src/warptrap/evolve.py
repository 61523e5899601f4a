"""Exact spectral evolution of the Dirichlet wave problem, mode by mode.

Each retained angular mode evolves in the conjugated radial variable
w = a*u on a truncated domain (x0, X_max) with an artificial Dirichlet
wall at X_max.  After one full eigendecomposition of the mode operator
(the latest one is cached), evolution is exact in time: spectral
coefficients just rotate, so there is no CFL restriction, no
time-stepping error, and the discrete energy is conserved to roundoff.
The geometry is rotationally symmetric, so a state, ``ModeState``, is
one mode, and every reduction over time samples is one call of one pass
over them, ``_sweep``, which returns the band energies and hands each
block's whole-grid densities to a reducer, so it alone holds them: the
confinement run, the near-energy history, the space-time norms and the
local-energy audit of the nontrapping side.
A state is the spectral coefficients (a, b) of its data (w, dt w), which
evolve as w(t) = cos(omega t) a + sin(omega t) b / omega.  This module
alone knows the one format of a sweep block, a real array of parts, each
part z giving the GEMM rows Re(E z) and kappa Im(E z), E = exp(-i omega t),
and the one energy-density body, which sums the squares of any number of
real parts (w, dt w).  Any state is two parts with kappa = omega, whose
rows are Re and Im of w and of dt w, four a sample; real data is one, as
its second part is zero; a standing wave (v, -i tau v) with v real, the
quasimode data, is the one part Re a with kappa = -1 / omega, whose rows
Re w and -Im w / tau are two a sample, and the mode operator turns them
into two density parts.

Every run evolves on the grid it is handed, whose right end is its wall
X_max, and ``run_confinement`` measures the energy reaching a strip in
front of it, which bounds the wall's influence on every reported quantity;
whether a run must be causally exact, X_max >= R + T, is the CLI's ``--causal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import WarpGeometry
from .quasimode import Quasimode, mode_operator
from .spectral import (
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
    "sample_count",
    "space_time_norms",
    "wave_field",
]

EVOLUTION_H_PER_SIGMA = 0.2
# time samples in one sweep block: its GEMM operand and densities stay at a
# few n * TILE entries instead of n * samples
TILE = 64
# run_confinement recomputes the energy from grid values at every
# _DRIFT_STRIDE-th sample, as an independent check on conservation
_DRIFT_STRIDE = 256
# drift samples reconstructed at a time: a fine-step run's peak memory holds
# one such block, its raw product and the operator's temporaries
_DRIFT_TILE = 16
# confinement runs measure the energy in the strip of this width in front of
# the wall, and pass when its maximum stays at or below _WALL_TOL times the
# total energy
_WALL_MARGIN = 2.0
_WALL_TOL = 1e-4


def _raw_product(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for real M (rows, n) and an (n, k) X, as the real product
    X_r^T M^T, one row per real column of X_r.

    A real float64 X, every sweep block, is X_r itself, so the result is
    (k, rows).  A C-ordered complex X, the data of a grid <-> spectral
    product, viewed as float64 is the real (n, 2k) matrix X_r of
    interleaved real and imaginary columns, so one real GEMM gives the
    complex product as (2k, rows), whose rows 2j and 2j + 1 are the real
    and imaginary parts of column j, with no complex copy of M and no split
    or recombined parts.  The GEMM is X_r^T M^T, with M as the right-hand
    operand: for a large M and a narrow block it runs at full BLAS speed,
    where M @ X_r does not.
    """
    X = X.reshape(X.shape[0], -1)
    if X.dtype != np.float64:
        X = np.ascontiguousarray(X, dtype=complex).view(np.float64)
    return X.T @ M.T


def _real_matmul(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for real M and complex X: the raw product copied back into
    complex order."""
    out = np.ascontiguousarray(_raw_product(M, X.astype(complex, copy=False)).T).view(complex)
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
    """Spectral coefficients (a, b) of one mode's data (w, dt w).

    Each eigencomponent evolves exactly as
    w(t) = cos(omega t) a + sin(omega t) b / omega, so that
    dt w(t) = -omega sin(omega t) a + cos(omega t) b.  ``standing_tau`` is
    tau for a standing wave, data (v, -i tau v) with v real as
    ``data_field`` builds it, and None for any other data; it picks the
    parts of the sweep's blocks, and a standing wave's sweep also gives its
    Duhamel gap.
    """

    prop: ModePropagator
    a: np.ndarray
    b: np.ndarray
    standing_tau: float | None = None

    @classmethod
    def from_grid_data(cls, prop: ModePropagator, w0: np.ndarray, w1: np.ndarray) -> "ModeState":
        ab = prop.to_spectral(np.column_stack([w0, w1]).astype(complex, copy=False))
        return cls(prop, ab[:, 0], ab[:, 1])

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

    def w_grid(self) -> np.ndarray:
        return self.prop.from_spectral(self.a)

    def wt_grid(self) -> np.ndarray:
        return self.prop.from_spectral(self.b)

    def graph_sq(self, k: int) -> float:
        """|B^k data|_H^2 for the generator B(w, dt w) = (i dt w, -i P w):
        Sum lambda^k (lambda |a|^2 + |b|^2), as B^2 acts as P on both
        components and |data|_H^2 = Sum lambda |a|^2 + |b|^2."""
        lam = self.prop.evals
        return float(np.sum(lam ** k * (lam * np.abs(self.a) ** 2 + np.abs(self.b) ** 2)))

    def energy_spectral(self) -> float:
        """Mode energy, half the squared energy norm; conserved exactly."""
        return 0.5 * self.graph_sq(0)

    def roundtrip_error(self, w0: np.ndarray, w1: np.ndarray) -> float:
        """Relative grid -> spectral -> grid reconstruction error of the data."""
        num = np.linalg.norm(self.w_grid() - w0) + np.linalg.norm(self.wt_grid() - w1)
        den = np.linalg.norm(w0) + np.linalg.norm(w1)
        return num / den if den > 0 else 0.0


def dbk_norm(state: ModeState, k: int) -> tuple[float, bool]:
    """Graph norm of the k-th generator power, |data| + |B^k data|, and
    whether the grid resolves it.

    The verdict is False when a generator power grows the norm by more
    than half the mode operator's sqrt(norm_bound), which signals
    grid-scale content: k exceeds the resolved discrete smoothness.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    norms = [math.sqrt(state.graph_sq(j)) for j in range(k + 1)]
    scale = math.sqrt(state.prop.op.norm_bound)
    resolved = not any(prev > 0 and cur / prev > 0.5 * scale
                       for prev, cur in zip(norms, norms[1:]))
    return norms[0] + norms[k], resolved


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
    """Sampled observables of one evolution run, its ``checks`` (check name
    to verdict) and its data state, which keeps the run's propagator alive
    as long as the report lives."""

    times: np.ndarray
    E: float
    E_R: np.ndarray
    ratio_E_R: np.ndarray
    duhamel_gap: np.ndarray
    le1_running: np.ndarray | None
    le1_times: np.ndarray | None
    t_confinement: float
    f_norm: float
    wall_buffer_max: float
    checks: dict[str, bool]
    energy_drift: float
    state: ModeState

    def csv_columns(self) -> list[np.ndarray]:
        """The columns of ``EVOLUTION_CSV_COLUMNS``, one entry a sample; the
        constant E is a broadcast view, holding no per-sample memory."""
        return [self.times, np.broadcast_to(self.E, self.times.shape), self.E_R,
                self.ratio_E_R, self._le1_on_times(), self.duhamel_gap]

    def _le1_on_times(self) -> np.ndarray:
        """The running LE1 at each sample time, interpolated between its
        samples; nan past the last LE1 sample, or without the LE1 pass."""
        if self.le1_running is None:
            return np.full(self.times.shape, math.nan)
        return np.interp(self.times, self.le1_times, self.le1_running, right=math.nan)

    def le1_at(self, T: float) -> float:
        """The running LE1 at time T, interpolated between its samples; a T
        past the last sample raises."""
        if self.le1_running is None:
            raise ValueError("run was made without the space-time norm pass")
        if T > self.le1_times[-1]:
            raise ValueError(f"no LE1 sample reaches t = {T!r}: the last is at "
                             f"t = {float(self.le1_times[-1])!r}")
        return float(np.interp(T, self.le1_times, self.le1_running))


EVOLUTION_CSV_COLUMNS = ["t", "E", "E_R", "ratio_E_R", "LE1_running", "duhamel_gap"]


def _wave_parts(a, b, omega):
    """The two parts of any state (a, b), z = Re a + i Re b / omega and
    Im a + i Im b / omega, for kappa = omega: with E = exp(-i omega t),
    Re(E z) = cos(omega t) Re a + sin(omega t) Re b / omega is Re w and
    omega Im(E z) = cos(omega t) Re b - omega sin(omega t) Re a is Re dt w,
    and the second part gives Im w and Im dt w alike."""
    return [a.real + 1j * (b.real / omega), a.imag + 1j * (b.imag / omega)]


def _sweep_block(zs, kappa, omega, t0, dt, m):
    """The sweep block of the p parts zs at the m times t0 + dt * j: the
    real (n, 2 p m) array [Re P_0 | ... | kappa Im P_0 | ...] of P_s = E z_s,
    E = exp(-i omega t), m columns a part, so that one real GEMM gives the
    X rows of every part, then their Y rows.

    The phases at t = t0 + dt * (8 q + r) are products of two tables,
    (n, ceil(m/8)) over q and (n, min(m, 8)) over r, so a block takes
    n * (ceil(m/8) + 8) exponentials instead of n * m.  Each entry of P_s is
    one complex product of the tables, formed 8 columns at a time in one
    n x 8 buffer, which gives both its X and its Y columns.
    """
    iw = -1j * omega
    coarse = np.exp(np.multiply.outer(iw, t0 + 8.0 * dt * np.arange((m + 7) // 8)))
    fine = np.exp(np.multiply.outer(iw, dt * np.arange(min(m, 8))))
    p = len(zs)
    G = np.empty((omega.size, 2 * p * m))
    P = np.empty_like(fine)
    for s, z in enumerate(zs):
        Z = z[:, None] * coarse
        for q, j in enumerate(range(0, m, 8)):
            k = min(8, m - j)
            np.multiply(Z[:, q, None], fine[:, :k], out=P[:, :k])
            x, y = s * m + j, (p + s) * m + j
            G[:, x:x + k] = P[:, :k].real
            np.multiply(P[:, :k].imag, kappa[:, None], out=G[:, y:y + k])
    return G


# -- energy density ------------------------------------------------------------
#
# The energy density is evaluated by the one body below, over the real parts
# of every state, which every tiled pass over the samples shares.


def _warp_factors(geom, grid) -> tuple[np.ndarray, np.ndarray]:
    """Nodal a'/a and a^{-2}, computed once per pass."""
    x = grid.nodes()
    return geom.da(x) / geom.a(x), geom.inv_a_sq(x)


def _densities(parts, h: float, ratio: np.ndarray,
               pot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|w|^2 and the energy density |dt w|^2 + |dx w - (a'/a) w|^2 + pot |w|^2
    of m samples, each (m, rows), from p real parts (w_s, dt w_s), each
    (m, rows), whose squares sum to those of w and dt w.

    For every p the sums run in one order: the (dt w_s)^2, the
    (dx w_s - (a'/a) w_s)^2, then pot |w|^2.  The centred stencil takes
    Dirichlet ghost zeros beyond both ends of the rows.  The parts' rows are
    overwritten: |w|^2 goes into the first w_s, the density into the first
    dt w_s, and each stencil into the last dt w_s once its square is summed,
    so two or more parts take no buffer and one part takes one.
    """
    (u, e), rest = parts[0], parts[1:]
    e *= e
    for _, wt in rest:
        wt *= wt
        e += wt
    t = rest[-1][1] if rest else np.empty_like(e)
    # dx w - (a'/a) w = (w[i+1] - w[i-1] - 2h (a'/a) w[i]) / 2h
    c = -2.0 * h * ratio
    for w, _ in parts:
        np.multiply(w, c, out=t)
        t[:, :-1] += w[:, 1:]
        t[:, 1:] -= w[:, :-1]
        t /= 2.0 * h
        t *= t
        e += t
    u *= u
    for w, _ in rest:
        w *= w
        u += w
    np.multiply(u, pot, out=t)
    e += t
    return u, e


def _standing_gap(G, alpha, evals, tau, theta):
    """Energy-norm distance of each sample of a standing wave's one-part
    sweep block G = [C | S] from its data rotated by exp(-i theta).

    With C = cos(omega t) alpha and S = sin(omega t) alpha / omega, the
    state is (a, b) = (C - i tau S, -lambda S - i tau C) and the rotated
    data (alpha, -i tau alpha) exp(-i theta), so the squared distance is
    Sum (lambda + tau^2) (alpha cos theta - C)^2
        + lambda tau^2 (alpha sin theta / tau - S)^2
        + lambda^2 (tau alpha sin theta / lambda - S)^2,
    reduced from one real n x m buffer that holds each difference in turn.
    """
    m = theta.size
    C, S = G[:, :m], G[:, m:]
    sin = np.sin(theta)
    D = np.multiply.outer(alpha, np.cos(theta))
    D -= C
    sq = np.einsum("ij,ij,i->j", D, D, evals + tau * tau)
    np.multiply.outer(alpha / tau, sin, out=D)
    D -= S
    sq += np.einsum("ij,ij,i->j", D, D, tau * tau * evals)
    np.multiply.outer(tau * alpha / evals, sin, out=D)
    D -= S
    sq += np.einsum("ij,ij,i->j", D, D, evals * evals)
    return np.sqrt(sq)


def sample_count(T: float, dt: float | None, h: float) -> tuple[float, int]:
    """The sample step of every evolution pass and its number of samples
    round(T / step) + 1.  The default step on a grid of spacing h is T / N,
    N = min(1000, ceil(T / h)), whose N + 1 samples end at T; an explicit dt
    that does not divide T ends them within dt / 2 of T, on either side."""
    if dt is None:
        dt = T / min(1000, math.ceil(T / h))
    return dt, int(round(T / dt)) + 1


def _sample_times(T: float, dt: float | None, h: float) -> tuple[float, np.ndarray]:
    """The sample step of ``sample_count`` and its sample times step * i."""
    dt, n = sample_count(T, dt, h)
    return dt, dt * np.arange(n)


def _sweep(mode: ModeState, times: np.ndarray, dt: float, k: int = 1, bands=(),
           reduce=None):
    """The one evolution pass over the samples ``times`` = dt * i of a mode:
    (energies, gap), the energy in each node band [lo, hi) of ``bands`` at
    every sample, one array a band, and a standing wave's Duhamel gap, the
    energy-norm distance from its data rotated by exp(-i tau t), or None.

    The state picks its parts once: those of its ``_sweep_block``s with
    their kappa, and ``parts``, which splits a block's raw product into the
    real parts (w, dt w) that ``_densities`` sums.  Any state takes the two
    parts of ``_wave_parts`` and kappa = omega: rows Re and Im of w and of
    dt w, four a sample.  Real data has real a and b, so its second part is
    exactly zero and is dropped: two rows, Re w and Re dt w.  A standing
    wave (``standing_tau`` set) has a = alpha real and b = -i tau alpha, so
    it is the one part alpha with kappa = -1 / omega, whose rows are
    X = cos(omega t) alpha = Re w and Y = sin(omega t) alpha / omega =
    -Im w / tau.  Exact eigenpairs give dt w = -P Y - i tau X for the mode
    operator P, so the density parts (X, P Y) and (tau Y, tau X) take one
    tridiagonal stencil and two (m, rows) buffers in place of the GEMM rows
    of dt w.  That stencil is the package's one product with P outside
    ``TridiagonalOperator.apply``: it acts along the rows of a band and
    sums o ((d / o) Y + Y[i+1] + Y[i-1]), the factored form every
    standing-wave output is computed with.

    The blocks are uniform, at most TILE samples of step k * dt: block r of
    each span of k * TILE samples holds the samples r, r + k, ...  A block
    is reconstructed on each band only, plus one neighbor row on each side
    for the stencils, a Dirichlet ghost zero at an end of the grid.  Given
    a reducer, block 0 of each span is reconstructed on the whole grid
    instead, its band energies are summed from there, and then
    ``reduce(block_times, u, e)`` takes its densities |w|^2 and the energy
    density, each (samples, n), which it may overwrite.  The block is freed
    before its densities are formed, and the raw product and the densities
    before the next block is built, so one block's are alive at a time.
    """
    prop, h, n = mode.prop, mode.grid.h, mode.grid.n_interior
    ratio, inv_a2 = _warp_factors(mode.geom, mode.grid)
    pot = mode.sigma_sq * inv_a2
    tau = mode.standing_tau
    if tau is None:
        zs, kappa = _wave_parts(mode.a, mode.b, prop.omega), prop.omega
        if not zs[1].any():
            zs = zs[:1]

        def parts(R, rows):
            S = np.split(R, 2 * len(zs))
            return list(zip(S[:len(zs)], S[len(zs):]))
    else:
        alpha, o = mode.a.real, prop.op.offdiag
        zs, kappa = [alpha], -1.0 / prop.omega

        def parts(R, rows):
            # P Y = o (Y[i-1] + Y[i+1] + (d / o) Y[i]), summed in place
            X, Y = np.split(R, 2)
            PY = np.multiply(Y, prop.op.diag[rows] / o)
            PY[:, :-1] += Y[:, 1:]
            PY[:, 1:] += Y[:, :-1]
            PY *= o
            Y *= tau
            return [(X, PY), (Y, X * tau)]
    energies = [np.empty(times.size) for _ in bands]
    gap = None if tau is None else np.empty(times.size)
    for c0 in range(0, times.size, k * TILE):
        for r in range(min(k, times.size - c0)):
            idx = slice(c0 + r, c0 + k * TILE, k)
            tc = times[idx]
            B = _sweep_block(zs, kappa, prop.omega, tc[0], k * dt, tc.size)
            if tau is not None:
                gap[idx] = _standing_gap(B, alpha, prop.evals, tau, tau * tc)
            whole = reduce is not None and r == 0
            for j, (lo, hi) in enumerate([(0, n)] if whole else bands):
                rows = slice(max(lo - 1, 0), min(hi + 1, n))
                R = _raw_product(prop.evecs[rows], B)
                if whole:
                    B = None  # freed before its densities are formed
                u, e = _densities(parts(R, rows), h, ratio[rows], pot[rows])
                if whole:
                    for E, (a, b) in zip(energies, bands):
                        E[idx] = 0.5 * h * np.sum(e[:, a:b], axis=1)
                    reduce(tc, u, e)
                else:
                    band = slice(lo - rows.start, hi - rows.start)
                    energies[j][idx] = 0.5 * h * np.sum(e[:, band], axis=1)
                del R, u, e  # freed before the next band or block is built
            del B
    return energies, gap


def data_field(geom: WarpGeometry, qm: Quasimode, grid_ext: Grid) -> ModeState:
    """The quasimode data (v, -i tau v), zero-extended onto the evolution
    grid: a standing wave, as v is real, so its sweeps take the one-part
    blocks of ``_sweep``.  Its coefficients are those of
    ``ModeState.from_grid_data`` on the same data."""
    u_ext = qm.extend_to(grid_ext)
    prop = get_propagator(geom, qm.l, grid_ext)
    state = ModeState.from_grid_data(prop, u_ext.astype(complex), -1j * qm.tau * u_ext)
    return replace(state, standing_tau=qm.tau)


def _energy_drift(mode: ModeState, dt: float, m: int) -> float:
    """Largest relative deviation, over the m sample times dt * j, of the
    energy recomputed from full-grid values from the conserved spectral
    energy: an independent check on conservation, reconstructed
    _DRIFT_TILE samples at a time.

    Every state, a standing wave too, takes the two parts of
    ``_wave_parts`` with kappa = omega, so the check reads no P stencil of
    the sweep.  Each tile's energies are reduced from the raw product of
    its block: h * x.x over the kappa Im rows, those of dt w, then the
    operator quadratic form h * x.Px over the Re rows, those of w, with P x
    from ``op.apply``; each sample adds its real and imaginary rows, one
    from each part.  A tile holds its block and the raw product, each of
    4 * _DRIFT_TILE columns at most, and the two temporaries of
    ``op.apply``, each of 2 * _DRIFT_TILE."""
    prop = mode.prop
    zs = _wave_parts(mode.a, mode.b, prop.omega)
    E = mode.energy_spectral()
    drift = 0.0
    for j0 in range(0, m, _DRIFT_TILE):
        k = min(_DRIFT_TILE, m - j0)
        R = _raw_product(prop.evecs, _sweep_block(zs, prop.omega, prop.omega, j0 * dt, dt, k))
        W, Wt = R[:2 * k], R[2 * k:]
        q = np.einsum("ij,ij->i", Wt, Wt)
        q += np.einsum("ij,ji->i", W, prop.op.apply(W.T))
        del R, W, Wt  # free this tile's product before the next block is built
        e = 0.5 * prop.h * (q[:k] + q[k:])
        drift = max(drift, float(np.max(np.abs(e - E))) / E)
    return drift


def _le_stride(T_max: float, dt: float) -> int:
    """Samples per LE1 sample: the largest whole k with k * dt <= T_max / 500,
    at least 1, so LE1 takes about 500 samples or every one."""
    return max(1, math.floor(T_max / (500.0 * dt) + 1e-9))


# float arrays of one entry a sample that run_confinement holds at once:
# its times, E_R, wall band, Duhamel gap and ratio_E_R
SAMPLE_ARRAYS = 5


def run_confinement(
    geom: WarpGeometry,
    qm: Quasimode,
    grid: Grid,
    T_max: float,
    R: float,
    dt: float | None = None,
    le1: bool = False,
) -> EvolutionReport:
    """Evolve the quasimode data (v, -i tau v) on ``grid`` and track the
    near energy.

    The wall, the right end of ``grid``, may sit inside the light cone.  The
    maximal energy found in the buffer strip of width ``_WALL_MARGIN`` in
    front of the wall is reported.  The report's ``checks`` hold the run's
    verdicts: ``wall_audit``, whether that energy stayed below ``_WALL_TOL``
    times the total energy, which caps the wall's possible effect on the
    near-region energy at the sub-percent level; ``gap_bound``, whether the
    Duhamel gap stayed within t |F| plus roundoff at every sample; and
    ``half_bound``, whether E_R stayed at least half the total energy.  |F|
    is the quasimode's ``residual_hk[0]``: the data vanish past 0.1 x0 < 0,
    so the rows that extending the operator to ``grid`` adds act on zeros.

    The samples are those of ``sample_count``: by default they end at T_max.
    With ``le1`` the running LE1 norm is sampled at every k-th sample time,
    k the largest whole number with k * dt <= T_max / 500, at least 1 (so
    the LE1 step is max(dt, T_max / 500) whenever T_max / (500 dt) is whole
    or below 1).  The LE1 samples end at the last multiple of k * dt at or
    below the last sample.  One ``_sweep`` call reconstructs each sample
    once: the LE1 samples on the whole grid, for their E_R, wall energies
    and LE1 density (``ShellAccumulator.add``), the others on the E_R and
    wall bands only.
    """
    if qm.cutoff.support_end >= R:
        raise ValueError("quasimode data must be supported inside [x0, R)")
    dt, times = _sample_times(T_max, dt, grid.h)
    k = _le_stride(T_max, dt) if le1 else 1
    mode = data_field(geom, qm, grid)
    f_norm = qm.residual_hk[0]

    x = grid.nodes()
    nR = int(np.searchsorted(x, R, side="right"))
    n_buf = int(np.searchsorted(x, grid.x_right - _WALL_MARGIN, side="left"))
    acc = ShellAccumulator(grid) if le1 else None

    # one sweep of step k * dt; with le1 its whole-grid blocks are the LE1
    # samples, whose densities feed the accumulator
    bands = ((0, nR), (n_buf, grid.n_interior))
    (E_R, wall), gap = _sweep(mode, times, dt, k, bands, reduce=acc.add if le1 else None)
    E_spec = mode.energy_spectral()
    data_h_norm = math.sqrt(2.0 * E_spec)

    le1_running = le1_times = None
    if le1:
        norms, le1_running = acc.finish()
        le1_times = norms.times

    ratio_E_R = E_R / E_R[0]
    below = np.nonzero(E_R < 0.5 * E_R[0])[0]
    t_conf = float(times[below[0]]) if below.size else math.inf
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
        f_norm=f_norm,
        wall_buffer_max=wall_max,
        checks={
            "gap_bound": bool(np.all(gap <= times * f_norm + 1e-9 * data_h_norm)),
            "half_bound": bool(np.all(np.sqrt(E_R) >= 0.5 * data_h_norm)),
            "wall_audit": bool(wall_max <= _WALL_TOL * E_spec),
        },
        energy_drift=_energy_drift(mode, _DRIFT_STRIDE * dt, times[::_DRIFT_STRIDE].size),
        state=mode,
    )


def space_time_norms(state: ModeState, T: float, dt: float):
    """Dyadic space-time norms of the homogeneous evolution sampled at dt * i
    in [0, T], and the running LE1: (LeNorms, running LE1).

    One ``_sweep`` call with every sample reconstructed on the whole grid,
    TILE samples at a time, and ``ShellAccumulator.add`` as its reducer,
    which is what makes wide frequency families affordable.
    """
    acc = ShellAccumulator(state.grid)
    _, times = _sample_times(T, dt, state.grid.h)
    _sweep(state, times, dt, reduce=acc.add)
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
    lhs_lepositive is LE1^2 + E0.  Both come from one ``_sweep`` call, whose
    energy density carries the angular term sigma^2 a^{-2} |w|^2: its reducer
    takes the local rows, moving the difference of the two angular weights
    onto |w|^2, and then feeds LE1 as in ``space_time_norms``.
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

    def reduce(block_times, u, e):
        rows.extend(state.grid.h * (e @ w_grad + u @ w_u))
        acc.add(block_times, u, e)  # overwrites e, so after the local rows

    _sweep(state, times, dt, reduce=reduce)
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
    gradient: the one band of one ``_sweep`` call, the rows up to R.
    """
    grid = state.grid
    if R <= grid.x_left:
        raise ValueError("R must exceed the boundary location")
    nR = int(np.searchsorted(grid.nodes(), R, side="right"))
    dt, times = _sample_times(T_max, dt, grid.h)
    (E_R,), _ = _sweep(state, times, dt, bands=((0, nR),))
    return times, E_R
