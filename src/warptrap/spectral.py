"""Uniform Dirichlet grids, tridiagonal operators, eigensolver, quadrature
and the dyadic shells of the space-time norms.

The second derivative is the standard 3-point stencil, so every radial
operator -d^2/dx^2 + V is a symmetric tridiagonal matrix.  Every
eigenpair comes from one LAPACK call, MRRR (dstemr) through ctypes in
the OpenBLAS bundled with numpy, so no run loads scipy or a second BLAS:
the lowest pair (``lowest_pair``, one per quasimode) as the index range
(1, 1), the full spectrum (``eigen_full``) as (1, n).  Every pair is then
quadrature-normalized and held to the residual gate 1e-10 * max|diag|,
a few columns at a time through the operator's own ``apply``; an
eigenvector keeps the sign its solver gives it, which no output
reads.  Quadrature is the midpoint-weight sum h * sum(v_i), exact enough
at second order for everything done here.

Norm conventions.  States are held per angular mode in the conjugated
radial variable w = a * u, where the volume element collapses:
|u|^2 dV integrated over the sphere equals |w|^2 dx on the line.  The
field energy uses the operator quadratic form h * <P w, w>, which the
spectral propagator conserves exactly; the gradient written out in the
u variable agrees with it to O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "EigensolverError",
    "Grid",
    "ShellAccumulator",
    "TridiagonalOperator",
    "build_operator",
    "eigen_full",
    "fd_derivative",
    "lowest_pair",
    "quadrature_hk",
    "quadrature_l2",
]


class EigensolverError(RuntimeError):
    """Raised when LAPACK reports a failed solve, an operator holds a
    non-finite entry, or an eigenpair misses the residual gate
    1e-10 * max|diag|."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid of interior nodes; the endpoints carry Dirichlet zeros."""

    x_left: float
    x_right: float
    n_interior: int

    def __post_init__(self):
        if not self.x_left < self.x_right:
            raise ValueError("grid requires x_left < x_right")
        if self.n_interior < 3:
            raise ValueError("grid requires at least 3 interior nodes")

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / (self.n_interior + 1)

    def nodes(self) -> np.ndarray:
        return self.x_left + self.h * np.arange(1, self.n_interior + 1)

    def extended(self, x_max: float) -> "Grid":
        """Evolution grid on (x_left, >= x_max) sharing this grid's spacing.

        The node set of ``self`` is a prefix of the extension's node set,
        so grid functions extend by zero without interpolation.
        """
        if x_max <= self.x_right:
            raise ValueError("extension must go beyond the current right endpoint")
        return self._through(x_max)

    def prefix(self, x_end: float) -> "Grid":
        """Grid on (x_left, >= x_end) sharing this grid's spacing, for an
        x_end before x_right: its node set is a prefix of this grid's."""
        if not self.x_left < x_end < self.x_right:
            raise ValueError("a prefix must end inside the grid")
        return self._through(x_end)

    def _through(self, x_end: float) -> "Grid":
        """The grid of this spacing on (x_left, x_left + n h), n the fewest
        steps reaching x_end."""
        h = self.h
        n_total = int(math.ceil((x_end - self.x_left) / h - 1e-12))
        return Grid(self.x_left, self.x_left + n_total * h, n_total - 1)

    @classmethod
    def for_sigma(cls, x0: float, x_right: float, sigma: float,
                  h_per_sigma: float) -> "Grid":
        """Grid resolving oscillation at angular frequency sigma,
        h * sigma <= h_per_sigma, with at least 200 interior nodes."""
        span = x_right - x0
        n = max(int(math.ceil(span * max(sigma, 1.0) / h_per_sigma)) - 1, 200)
        return cls(x0, x_right, n)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix for -d^2/dx^2 + V with Dirichlet ends."""

    grid: Grid
    diag: np.ndarray
    offdiag: float
    potential_id: str = ""

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def diag_inf(self) -> float:
        return float(np.abs(self.diag).max())

    @property
    def norm_bound(self) -> float:
        return self.diag_inf + 2.0 * abs(self.offdiag)

    def offdiag_vector(self) -> np.ndarray:
        return np.full(self.n - 1, self.offdiag)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product; v may be (n,) or (n, k), real or complex."""
        out = self.diag.reshape(-1, *([1] * (v.ndim - 1))) * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


def build_operator(grid: Grid, V, potential_id: str = "") -> TridiagonalOperator:
    """Assemble -d^2/dx^2 + V on the grid; V maps the node array to the
    potential's values there."""
    vals = np.asarray(V(grid.nodes()), dtype=float)
    if vals.shape != (grid.n_interior,):
        raise ValueError("potential array does not match the grid")
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential must be finite on all grid nodes")
    h = grid.h
    return TridiagonalOperator(grid, 2.0 / h**2 + vals, -1.0 / h**2, potential_id)


# Eigenvector columns the gate normalizes and checks at a time: a block and
# its residual, n x 8 each, stay in L2 cache.
_GATE_TILE = 8


def _gate_pairs(op: TridiagonalOperator, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Quadrature-normalize the eigenvector columns in place and hold every
    pair to the residual gate.

    The matrix is processed _GATE_TILE columns at a time: each block is
    normalized, then its residual P v - lambda v is formed by ``op.apply``,
    so the temporaries are a few n x _GATE_TILE arrays.  The residual norm
    divides by |v| = h^(-1/2), which the normalization fixes.  An
    eigenvector's sign is the solver's: no output reads it, as flipping
    column j negates the spectral coefficient c_j and every phase-block
    entry exactly, leaving each reconstructed product bit-identical.  A
    residual above the gate, or one that is not a number, raises
    ``EigensolverError``.
    """
    h = op.grid.h
    resid = np.empty(vals.size)
    for j0 in range(0, vals.size, _GATE_TILE):
        cols = slice(j0, j0 + _GATE_TILE)
        blk = vecs[:, cols]
        blk /= np.sqrt(h * np.sum(blk * blk, axis=0))
        r = op.apply(blk)
        r -= vals[None, cols] * blk
        resid[cols] = np.sqrt(h * np.einsum("ij,ij->j", r, r))
    limit = 1e-10 * op.diag_inf
    bad = np.flatnonzero(~(resid <= limit))
    if bad.size:
        raise EigensolverError(
            f"eigenpair residuals {resid[bad].tolist()} exceed {limit:.3e} "
            f"for indices {bad.tolist()} of {op.potential_id!r}"
        )


def _bundled_openblas() -> list[Path]:
    """Paths of the ILP64 OpenBLAS bundled with numpy, which numpy has
    already loaded: ``numpy.libs/`` holds it in Linux and Windows wheels,
    ``numpy/.dylibs/`` in macOS ones."""
    root = Path(np.__file__).parent
    return sorted([*root.parent.glob("numpy.libs/libscipy_openblas64_*"),
                   *root.glob(".dylibs/libscipy_openblas64_*")])


_DSTEMR = None


def _lapacke_dstemr():
    """``LAPACKE_dstemr`` of numpy's bundled OpenBLAS, bound once."""
    global _DSTEMR
    if _DSTEMR is None:
        import ctypes

        found = _bundled_openblas()
        if len(found) != 1:
            raise EigensolverError(
                f"expected one libscipy_openblas64_ library bundled with numpy "
                f"{np.__version__}, found {len(found)}")
        try:
            fn = ctypes.CDLL(str(found[0])).scipy_LAPACKE_dstemr64_
        except (OSError, AttributeError) as exc:
            raise EigensolverError(f"no LAPACKE dstemr in {found[0].name}: {exc}") from exc
        vec = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
        mat = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
        ints = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
        i64, f64, char = ctypes.c_int64, ctypes.c_double, ctypes.c_char
        # (layout, jobz, range, n, d, e, vl, vu, il, iu, m, w, z, ldz, nzc,
        #  isuppz, tryrac); lapack_int and lapack_logical are 64-bit
        fn.argtypes = [ctypes.c_int, char, char, i64, vec, vec, f64, f64, i64, i64,
                       ints, vec, mat, i64, i64, ints, ints]
        fn.restype = i64
        _DSTEMR = fn
    return _DSTEMR


def _stemr(d: np.ndarray, e: np.ndarray, il: int, iu: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs il..iu, counted from 1 in ascending order, of the symmetric
    tridiagonal (d, e) by LAPACK's MRRR (``dstemr``, Dhillon & Parlett
    2004): the k = iu - il + 1 eigenvalues and the F-ordered (n, k) matrix
    of unit eigenvector columns.  All n pairs are asked for as range 'A',
    any other window as range 'I', in (n, k) memory.  Copies of d and e go
    to LAPACK, which overwrites them; a failed solve raises
    ``EigensolverError``."""
    n, k = d.size, iu - il + 1
    d_work = np.array(d, dtype=np.float64)
    e_work = np.zeros(n)  # stemr reads e[:n - 1] and uses e[n - 1] as workspace
    e_work[:-1] = e
    m, tryrac = np.zeros(1, np.int64), np.ones(1, np.int64)
    isuppz = np.empty(2 * k, np.int64)
    w = np.empty(n)
    z = np.empty((n, k), order="F")
    info = _lapacke_dstemr()(102, b"V", b"A" if k == n else b"I", n, d_work, e_work,
                             0.0, 0.0, il, iu, m, w, z, n, k, isuppz, tryrac)
    if info != 0 or m[0] != k:
        raise EigensolverError(f"dstemr returned info={info} with {m[0]} of {k} pairs")
    return w[:k], z


def _solve(op: TridiagonalOperator, il: int, iu: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs il..iu of ``_stemr``, quadrature-normalized and gated.

    An operator with a non-finite entry, a failed solve or a missing
    library raises ``EigensolverError`` naming the operator and its n.
    """
    if not math.isfinite(op.norm_bound):
        raise EigensolverError(
            f"operator {op.potential_id!r} (n={op.n}) has a non-finite entry")
    try:
        vals, vecs = _stemr(op.diag, op.offdiag_vector(), il, iu)
    except EigensolverError as exc:
        raise EigensolverError(
            f"LAPACK eigensolver failed for operator {op.potential_id!r} (n={op.n}): {exc}"
        ) from exc
    _gate_pairs(op, vals, vecs)
    return vals, vecs


def lowest_pair(op: TridiagonalOperator) -> tuple[float, np.ndarray]:
    """The lowest eigenvalue and its quadrature-normalized eigenvector: the
    index range (1, 1) of ``_stemr``.  The vector keeps LAPACK's sign, as
    ``eigen_full``'s columns do."""
    vals, vecs = _solve(op, 1, 1)
    return float(vals[0]), vecs[:, 0]


def eigen_full(op: TridiagonalOperator) -> tuple[np.ndarray, np.ndarray]:
    """Complete spectrum and h-orthonormal eigenvector matrix (columns): the
    index range (1, n) of ``_stemr``."""
    return _solve(op, 1, op.n)


# -- quadrature ---------------------------------------------------------------


def quadrature_l2(grid: Grid, v: np.ndarray) -> float:
    """Midpoint-weight L^2 norm sqrt(h * sum |v_i|^2)."""
    return math.sqrt(grid.h * float(np.sum(np.abs(v) ** 2)))


def fd_derivative(grid: Grid, v: np.ndarray, order: int = 1) -> np.ndarray:
    """Finite-difference derivative with Dirichlet ghost zeros at both ends."""
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    h = grid.h
    vp = np.concatenate([[0.0 * v[0]], v, [0.0 * v[0]]])
    if order == 1:
        return (vp[2:] - vp[:-2]) / (2.0 * h)
    return (vp[2:] - 2.0 * vp[1:-1] + vp[:-2]) / h**2


def staggered_derivative(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Cell-edge first difference (n+1 values) with Dirichlet ghost zeros."""
    vp = np.concatenate([[0.0 * v[0]], v, [0.0 * v[0]]])
    return np.diff(vp) / grid.h


def quadrature_hk(grid: Grid, v: np.ndarray, k: int) -> float:
    """Sobolev norm with finite-difference derivatives up to order k.

    The first-derivative term uses the staggered difference, whose square
    sum is exactly the Dirichlet form <-D2 v, v>, keeping the norm
    second-order accurate; the second-derivative term uses the 3-point
    stencil at the nodes.
    """
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    total = quadrature_l2(grid, v) ** 2
    if k >= 1:
        dv = staggered_derivative(grid, v)
        total += grid.h * float(np.sum(np.abs(dv) ** 2))
    if k >= 2:
        d2v = fd_derivative(grid, v, 2)
        total += quadrature_l2(grid, d2v) ** 2
    return math.sqrt(total)


# -- dyadic shells and space-time norms ---------------------------------------


@dataclass
class LeNorms:
    """Dyadically weighted space-time norms of a sampled evolution."""

    le: float
    le1: float
    le_star: float
    times: np.ndarray


class ShellAccumulator:
    """Accumulates per-shell space-time integrals from sampled states.

    The grid splits into dyadic shells <x> ~ 2^j, <x> = sqrt(1 + x^2):
    shell j holds the nodes with <x> in [2^j, 2^(j+1)), so every node lands
    in exactly one shell.  Feed sample times with time-major (k, n)
    node-density blocks of |u|^2 and the energy density, one row per time,
    in time order; integrals use the trapezoid rule over the fed times.
    """

    def __init__(self, grid: Grid):
        x = grid.nodes()
        bracket = np.sqrt(1.0 + x * x)
        shell = np.floor(np.log2(bracket)).astype(int)
        self.n_shells = int(shell.max()) + 1
        self._inv_bracket_sq = 1.0 / (bracket * bracket)
        # h-weighted shell indicator: one product sums a density block per shell
        self.indicator = grid.h * (np.arange(self.n_shells)[:, None] == shell).astype(float)
        self.times: list[float] = []
        self.u_rows: list[np.ndarray] = []
        self.e1_rows: list[np.ndarray] = []

    def add(self, times: np.ndarray, u: np.ndarray, e: np.ndarray) -> None:
        """Add the shell sums of |w|^2 densities u and energy densities e,
        each (k, n), at k sample times.  The order-one density
        e + <x>^-2 |w|^2 of LE1 is formed in place in e, so ``evolve._sweep``,
        whose reducer this is, frees both after the call."""
        e += self._inv_bracket_sq * u
        self.times.extend(np.asarray(times, dtype=float).tolist())
        self.u_rows.append(u @ self.indicator.T)
        self.e1_rows.append(e @ self.indicator.T)

    @staticmethod
    def _cum_trapz(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        dt = np.diff(t)[:, None]
        inc = 0.5 * (rows[1:] + rows[:-1]) * dt
        return np.vstack([np.zeros((1, rows.shape[1])), np.cumsum(inc, axis=0)])

    def finish(self) -> tuple[LeNorms, np.ndarray]:
        if len(self.times) < 2:
            raise ValueError("need at least two time samples for the space-time norms")
        t = np.asarray(self.times)
        U = self._cum_trapz(np.vstack(self.u_rows), t)
        E1 = self._cum_trapz(np.vstack(self.e1_rows), t)
        j = np.arange(self.n_shells)
        wdown = np.power(2.0, -0.5 * j)
        wup = np.power(2.0, 0.5 * j)
        le = float(np.max(wdown * np.sqrt(U[-1])))
        le1 = float(np.max(wdown * np.sqrt(E1[-1])))
        le_star = float(np.sum(wup * np.sqrt(U[-1])))
        le1_running = np.max(wdown[None, :] * np.sqrt(E1), axis=1)
        return LeNorms(le, le1, le_star, t), le1_running

