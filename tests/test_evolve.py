import dataclasses
import math
import weakref
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from warptrap import evolve, quasimode
from warptrap.evolve import TILE, dbk_norm
from warptrap.geometry import WarpGeometry
from warptrap.quasimode import build_quasimode, interval_grid
from warptrap.spectral import (
    EigensolverError,
    Grid,
    build_operator,
    fd_derivative,
)


def bump(x, center, width):
    s = (x - center) / width
    out = np.zeros_like(x)
    inside = np.abs(s) < 1
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


@pytest.fixture(scope="module")
def small_field(geom_m1_trapped):
    grid = Grid(-1.0, 14.0, 700)
    x = grid.nodes()
    w0 = bump(x, 0.2, 0.6).astype(complex)
    w1 = -0.3j * w0
    return evolve.wave_field(geom_m1_trapped, grid, [(1, 1, w0, w1)])


@pytest.fixture(scope="module")
def oscillating_field(geom_m1_trapped):
    grid = Grid(-1.0, 14.0, 700)
    x = grid.nodes()
    v0 = (bump(x, 1.5, 0.9) * np.exp(2.0j * x)).astype(complex)
    return evolve.wave_field(geom_m1_trapped, grid, [(4, 1, v0, 0.5 * v0)])


def split_product(M, X):
    """Reference real-by-complex product: separate real and imaginary GEMMs."""
    return M @ X.real + 1j * (M @ X.imag)


class TestPackedProduct:
    n = 120

    def blocks(self):
        rng = np.random.default_rng(21)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        wide = cplx(self.n, 5)
        tall = cplx(2 * self.n, 3)
        return {
            "c_order": cplx(self.n, 4),
            "f_order": np.asfortranarray(cplx(self.n, 4)),
            "first_column": wide[:, :1],
            "column_slice": wide[:, 2:4],
            "strided_rows": tall[::2],
            "row_window": tall[7:7 + self.n],
            "vector": cplx(self.n),
            "strided_vector": wide[:, 3],
            "tile": cplx(self.n, TILE),
        }

    def test_matches_split_product(self):
        M = np.random.default_rng(22).standard_normal((90, self.n))
        for name, X in self.blocks().items():
            got = evolve._real_matmul(M, X)
            ref = split_product(M, X)
            assert got.shape == ref.shape, name
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name

    def test_from_spectral_matches_split_product(self, geom_m1_trapped):
        prop = evolve.get_propagator(geom_m1_trapped, 2, Grid(-1.0, 5.0, self.n))
        for name, c in self.blocks().items():
            ref = split_product(prop.evecs, c)
            got = prop.from_spectral(c)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name


class TestProjection:
    """``to_spectral`` multiplies only the rows of the data's nonzero span."""

    n = 150

    def prop(self, geom):
        return evolve.get_propagator(geom, 2, Grid(-1.0, 5.0, self.n))

    def full_rows(self, prop, v):
        return prop.h * evolve._real_matmul(prop.evecs.T, v)

    @pytest.mark.parametrize("rows", [slice(40, 90), slice(0, 30), slice(110, 150)],
                             ids=["interior", "first_row", "last_row"])
    def test_matches_full_row_product(self, geom_m1_trapped, rows):
        prop = self.prop(geom_m1_trapped)
        rng = np.random.default_rng(23)
        v = np.zeros((self.n, 2), complex)
        v[rows] = random_coefficients(rng, rows.stop - rows.start)[0][:, None] * [1.0, -2j]
        for data in (v, v[:, 0]):
            got, ref = prop.to_spectral(data), self.full_rows(prop, data)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_zero_data(self, geom_m1_trapped):
        prop = self.prop(geom_m1_trapped)
        got = prop.to_spectral(np.zeros((self.n, 3), complex))
        assert got.shape == (self.n, 3) and got.dtype == complex
        assert not np.any(got)

    def test_nan_reaches_coefficients(self, geom_m1_trapped):
        # NaN != 0, so a NaN row stays in the product even where it is the
        # only entry off zero
        prop = self.prop(geom_m1_trapped)
        v = np.zeros((self.n, 2), complex)
        v[120, 0] = np.nan
        got = prop.to_spectral(v)
        assert np.all(np.isnan(got[:, 0]))
        assert not np.any(got[:, 1])


def direct_phase_block(a, b, omega, times):
    """Reference phase block: one cosine and one sine per mode and time,
    packed as [a(t) | b(t)] with a(t) = cos(omega t) a + sin(omega t) b /
    omega and b(t) = cos(omega t) b - omega sin(omega t) a."""
    wt = np.outer(omega, times)
    c, s, om = np.cos(wt), np.sin(wt), omega[:, None]
    return np.hstack([c * a[:, None] + s * (b / omega)[:, None],
                      c * b[:, None] - om * s * a[:, None]])


def abs_rotation_gap(AB, a0, b0, evals, ph):
    """Reference Duhamel gap from |.|^2 of the two complex differences."""
    m = ph.size
    da = np.multiply.outer(a0, ph) - AB[:, :m]
    db = np.multiply.outer(b0, ph) - AB[:, m:]
    return np.sqrt(np.sum(evals[:, None] * np.abs(da) ** 2 + np.abs(db) ** 2, axis=0))


def general_block(a, b, omega, t0, dt, m):
    """The sweep block of the coefficients (a, b): two parts with
    kappa = omega, whose rows are Re a, Im a, Re b and Im b, m columns
    each."""
    return evolve._sweep_block(evolve._wave_parts(a, b, omega), omega, omega, t0, dt, m)


def packed(G):
    """A two-part sweep block as the packed complex [a | b] block."""
    m = G.shape[1] // 4
    return np.hstack([G[:, :m] + 1j * G[:, m:2 * m], G[:, 2 * m:3 * m] + 1j * G[:, 3 * m:]])


def damp_sweep_blocks(monkeypatch, rate):
    """Damp every sweep block: ``_sweep_block`` takes the phases of
    omega (1 - i rate), so each eigencomponent's rows decay as
    exp(-rate omega t), and the grid energy falls with time."""
    block = evolve._sweep_block
    monkeypatch.setattr(evolve, "_sweep_block", lambda zs, kappa, omega, t0, dt, m: block(
        zs, kappa, omega * (1.0 - 1j * rate), t0, dt, m))


def damped_phase_block(a, b, omega, times, rate):
    """``direct_phase_block`` with each eigencomponent's columns scaled by
    exp(-rate omega t): the reference of ``damp_sweep_blocks``."""
    decay = np.exp(-rate * np.outer(omega, times))
    return direct_phase_block(a, b, omega, times) * np.hstack([decay, decay])


def builder_gap(state, tau, times, dt, k=1):
    """The Duhamel gap of a sweep from the complex differences of the
    two-part blocks of the state's (a, b), built over the tiles of
    ``_sweep`` (block r of each span of k * TILE samples holds the samples
    r, r + k, ...), so its phases are rounded as the sweep's own blocks
    round them."""
    gap = np.empty(times.size)
    for c0 in range(0, times.size, k * TILE):
        for r in range(min(k, times.size - c0)):
            idx = slice(c0 + r, c0 + k * TILE, k)
            tc = times[idx]
            AB = packed(general_block(state.a, state.b, state.prop.omega, tc[0], k * dt,
                                      tc.size))
            gap[idx] = abs_rotation_gap(AB, state.a, state.b, state.prop.evals,
                                        np.exp(-1j * tau * tc))
    return gap


def random_coefficients(rng, n):
    return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)]


class TestPhaseBlock:
    n = 90

    @pytest.mark.parametrize("m", [1, 7, 8, 41, TILE])
    @pytest.mark.parametrize("t0, dt", [(3.7, 0.13), (250.0, 1.0), (-4.1, -0.35)])
    def test_matches_direct_exponentials(self, m, t0, dt):
        # the three blocks a sweep builds: two parts for any data, one part
        # for real data and the standing wave's one part alpha, kappa =
        # -1 / omega, whose columns are cos(omega t) alpha and
        # sin(omega t) alpha / omega
        rng = np.random.default_rng(m)
        omega = np.sort(rng.uniform(1.0, 50.0, self.n))
        a, b = random_coefficients(rng, self.n)
        times = t0 + dt * np.arange(m)
        ref = direct_phase_block(a, b, omega, times)
        # Both builds round the phase angle omega * t, each to within a few
        # eps * omega * t (the products and sums forming t and omega * t),
        # so each part z moves by about 2 eps * omega * t * |z|; the
        # exponentials and the complex products add a few eps * |z|, which
        # omega * t >= 3.7 here absorbs.  The parts of a component have
        # |z_0|^2 + |z_1|^2 = |a|^2 + |b / omega|^2, so c = 8 bounds a(t), and
        # the rows of b(t), kappa = omega times those of Im P, scale that by
        # max(omega).
        eps = np.finfo(float).eps
        size = np.sqrt(np.abs(a) ** 2 + np.abs(b / omega) ** 2).max()
        tol_a = 8 * eps * omega.max() * np.abs(times).max() * size
        got = general_block(a, b, omega, t0, dt, m)
        assert got.shape == (self.n, 4 * m) and got.dtype == np.float64
        got = packed(got)
        assert np.max(np.abs(got[:, :m] - ref[:, :m])) <= tol_a
        assert np.max(np.abs(got[:, m:] - ref[:, m:])) <= omega.max() * tol_a

        # real data (Re a, Re b), one part: the rows Re a(t) and Re b(t)
        z = evolve._wave_parts(a.real, b.real, omega)[0]
        got = evolve._sweep_block([z], omega, omega, t0, dt, m)
        assert got.shape == (self.n, 2 * m) and got.dtype == np.float64
        ref = direct_phase_block(a.real, b.real, omega, times).real
        assert np.max(np.abs(got[:, :m] - ref[:, :m])) <= tol_a
        assert np.max(np.abs(got[:, m:] - ref[:, m:])) <= omega.max() * tol_a

        # the standing wave's part alpha = Re a, whose angles move it by
        # 2 eps * omega * t * |alpha|, and by that over omega in the sine
        # columns
        alpha = a.real
        got = evolve._sweep_block([alpha], -1.0 / omega, omega, t0, dt, m)
        assert got.shape == (self.n, 2 * m) and got.dtype == np.float64
        phase = np.outer(omega, times)
        assert np.max(np.abs(got[:, :m] - np.cos(phase) * alpha[:, None])) <= tol_a
        assert np.max(np.abs(got[:, m:] - np.sin(phase) * (alpha / omega)[:, None])) <= tol_a

    def test_zero_time_sample_is_exact(self):
        # at t = 0 every phase is 1: each part's first columns are Re z and
        # kappa Im z themselves, and the rows of w are those of a
        rng = np.random.default_rng(5)
        omega = rng.uniform(1.0, 50.0, self.n)
        a, b = random_coefficients(rng, self.n)
        z0, z1 = evolve._wave_parts(a, b, omega)
        G = evolve._sweep_block([z0, z1], omega, omega, 0.0, 0.5, 9)
        for j, col in enumerate((z0.real, z1.real, omega * z0.imag, omega * z1.imag)):
            assert np.array_equal(G[:, 9 * j], col)
        assert np.array_equal(G[:, 0] + 1j * G[:, 9], a)


def random_mode(x0, span, n, l, seed):
    """A mode on a random grid carrying random complex data (w0, w1)."""
    geom = WarpGeometry.of(1, x0)
    prop = evolve.ModePropagator(geom, l, Grid(x0, x0 + span, n))
    rng = np.random.default_rng(seed)
    w0, w1 = random_coefficients(rng, n)
    return evolve.ModeState.from_grid_data(prop, w0, w1), w0, w1


mode_draws = dict(n=st.integers(5, 60), x0=st.sampled_from([-2.0, -1.0, 0.5, 1.0]),
                  span=st.floats(1.0, 10.0), l=st.integers(0, 6),
                  seed=st.integers(0, 2**32 - 1))


class TestPhaseProperties:
    """Conservation, time reversal and the round trip, through the sweep
    block of two parts on random grids, degrees and data."""

    @settings(max_examples=30)
    @given(dt=st.floats(0.01, 20.0), m=st.integers(1, 2 * TILE), **mode_draws)
    def test_grid_energy_matches_spectral(self, dt, m, n, x0, span, l, seed):
        mode, _, _ = random_mode(x0, span, n, l, seed)
        assert evolve._energy_drift(mode, dt, m) <= 1e-12

    @settings(max_examples=30)
    @given(t0=st.floats(-100.0, 100.0), dt=st.floats(-5.0, 5.0), m=st.integers(1, TILE),
           **mode_draws)
    def test_time_reversal_returns_coefficients(self, t0, dt, m, n, x0, span, l, seed):
        mode, _, _ = random_mode(x0, span, n, l, seed)
        a, b, omega = mode.a, mode.b, mode.prop.omega
        AB = packed(general_block(a, b, omega, t0, dt, m))
        tol = 8 * np.finfo(float).eps * (np.abs(a) + np.abs(b) / omega)
        for j in range(m):
            # run sample j backwards by t0 + dt * j: column j of the
            # reversed tile
            back = packed(general_block(AB[:, j], AB[:, m + j], omega, -t0, -dt, m))
            assert np.all(np.abs(back[:, j] - a) <= tol)
            assert np.all(np.abs(back[:, m + j] - b) <= omega * tol)

    @settings(max_examples=30)
    @given(dt=st.floats(0.01, 20.0), m=st.integers(1, TILE), **mode_draws)
    def test_grid_spectral_grid_round_trip(self, dt, m, n, x0, span, l, seed):
        mode, w0, w1 = random_mode(x0, span, n, l, seed)
        prop = mode.prop
        W = prop.from_spectral(packed(general_block(mode.a, mode.b, prop.omega, 0.0, dt, m)))
        err = np.linalg.norm(W[:, 0] - w0) + np.linalg.norm(W[:, m] - w1)
        assert err <= 1e-10 * (np.linalg.norm(w0) + np.linalg.norm(w1))


def test_hypothesis_profile_is_deterministic():
    assert settings.default.derandomize and settings.default.deadline is None


def test_wave_field_is_one_mode(geom_m1_trapped):
    grid = Grid(-1.0, 5.0, 120)
    w0 = bump(grid.nodes(), 1.0, 0.5).astype(complex)
    state = evolve.wave_field(geom_m1_trapped, grid, [(2, 1, w0, -0.5j * w0)])
    assert isinstance(state, evolve.ModeState)
    assert state.prop.l == 2 and state.geom is geom_m1_trapped and state.grid == grid
    for entries in ([], [(2, 2, w0, w0)], [(1, 1, w0, w0), (2, 1, w0, w0)]):
        with pytest.raises(ValueError, match="one mode"):
            evolve.wave_field(geom_m1_trapped, grid, entries)


class TestPropagate:
    def test_zero_data_stays_zero(self, geom_m1_trapped):
        grid = Grid(-1.0, 5.0, 120)
        z = np.zeros(120, dtype=complex)
        fld = evolve.wave_field(geom_m1_trapped, grid, [(0, 1, z, z)])
        hist = oracles.propagate(fld, 0.5, 6)
        for state in hist:
            assert np.all(state.w_grid() == 0)

    def test_eigenvector_data_oscillates_exactly(self, geom_m1_trapped):
        grid = Grid(-1.0, 6.0, 250)
        prop = evolve.get_propagator(geom_m1_trapped, 0, grid)
        k = 3
        ek = prop.evecs[:, k].astype(complex)
        fld = evolve.ModeState.from_grid_data(prop, ek, np.zeros_like(ek))
        t = 2.31
        w = oracles.advanced(fld, t).w_grid()
        expected = math.cos(math.sqrt(prop.evals[k]) * t) * prop.evecs[:, k]
        assert np.linalg.norm(w - expected) < 1e-10 * np.linalg.norm(expected)

    def test_rejects_zero_dt(self, small_field):
        with pytest.raises(ValueError):
            oracles.propagate(small_field, 0.0, 3)

    def test_energy_conserved_and_recomputable(self, small_field, geom_m1_trapped):
        E0 = small_field.energy_spectral()
        for t in (3.0, 111.0, 1000.0):
            state = oracles.advanced(small_field, t)
            assert abs(state.energy_spectral() - E0) / E0 < 1e-12
            again = oracles.energy_norms(state, R=2.0)["E"]
            assert abs(again - E0) / E0 < 1e-10

    def test_time_reversal(self, small_field):
        t = 77.7
        back = oracles.advanced(oracles.advanced(small_field, t), -t)
        w0 = small_field.w_grid()
        err = np.linalg.norm(back.w_grid() - w0) / np.linalg.norm(w0)
        assert err < 1e-9

    def test_grid_spectral_roundtrip(self, geom_m1_trapped):
        grid = Grid(-1.0, 14.0, 700)
        x = grid.nodes()
        rng = np.random.default_rng(5)
        w0 = (rng.standard_normal(700) + 1j * rng.standard_normal(700))
        w1 = (rng.standard_normal(700) + 1j * rng.standard_normal(700))
        prop = evolve.get_propagator(geom_m1_trapped, 1, grid)
        mode = evolve.ModeState.from_grid_data(prop, w0, w1)
        assert mode.roundtrip_error(w0, w1) < 1e-10

    def test_causality_front(self, geom_m1_trapped):
        # data in [x0, R]: energy past x = R + t + 5h stays at the noise floor
        grid = Grid(-1.0, 20.0, 900)
        x = grid.nodes()
        h = grid.h
        R = 1.0
        w0 = bump(x, 0.3, 0.55).astype(complex)
        fld = evolve.wave_field(geom_m1_trapped, grid, [(0, 1, w0, np.zeros_like(w0))])
        E0 = fld.energy_spectral()
        geom = geom_m1_trapped
        ratio = geom.da(x) / geom.a(x)
        for t in (4.0, 9.0, 14.0):
            assert t <= (grid.x_right - grid.x_left) - R - 10 * h
            state = oracles.advanced(fld, t)
            w, wt = state.w_grid(), state.wt_grid()
            from warptrap.spectral import fd_derivative

            dens = np.abs(wt) ** 2 + np.abs(fd_derivative(grid, w, 1) - ratio * w) ** 2
            beyond = x > R + t + 5 * h
            assert 0.5 * h * np.sum(dens[beyond]) < 1e-6 * E0

    def test_indefinite_operator_raises(self, monkeypatch):
        geom = WarpGeometry.of(1, -1.0)
        grid = Grid(-1.0, 1.0, 60)
        monkeypatch.setattr(evolve, "mode_operator", lambda geom, l, grid: build_operator(
            grid, lambda x: 0.0 * x - 30.0, potential_id=f"constant -30, l={l}"))
        with pytest.raises(EigensolverError, match="not positive definite") as exc:
            evolve.ModePropagator(geom, 0, grid)
        assert str(exc.value).startswith("operator 'constant -30, l=0' (n=60)")
        # the message ends with the lowest eigenvalue, -30 plus the Dirichlet
        # Laplacian's lowest
        lowest = -30.0 + 4.0 / grid.h**2 * math.sin(math.pi / (2 * 61)) ** 2
        assert float(str(exc.value).split()[-1]) == pytest.approx(lowest, rel=1e-10)

    @settings(max_examples=40)
    @given(m=st.sampled_from([1, 2, 3]), x0=st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
           span=st.floats(0.5, 20.0), n=st.integers(3, 80), l=st.integers(0, 80))
    def test_property_mode_operators_positive_definite(self, m, x0, span, n, l):
        # V_l >= 0, so by Weyl's inequality the lowest eigenvalue is at least
        # the Dirichlet Laplacian's, (4/h^2) sin^2(pi / (2(n+1)))
        grid = Grid(x0, x0 + span, n)
        prop = evolve.ModePropagator(WarpGeometry.of(m, x0), l, grid)
        laplacian = 4.0 / grid.h**2 * math.sin(math.pi / (2 * (n + 1))) ** 2
        assert prop.evals[0] > 0
        assert prop.evals[0] >= laplacian - 1e-10 * prop.op.diag_inf
        assert prop.omega.dtype == np.float64


class TestForcing:
    def test_duhamel_reproduces_phase_rotation(self, geom_m1_trapped):
        grid_i = Grid(-1.0, 0.0, 120)
        qm = build_quasimode(geom_m1_trapped, 8, grid_interval=grid_i)
        gext = qm.grid.extended(8.0)
        u = qm.extend_to(gext).astype(complex)
        prop = evolve.get_propagator(geom_m1_trapped, 8, gext)
        tau = qm.tau
        f_vec = prop.op.apply(u.real) - qm.tau_sq * u.real
        fld = evolve.wave_field(geom_m1_trapped, gext, [(8, 1, u, -1j * tau * u)])

        f_norm = math.sqrt(gext.h * np.sum(f_vec**2))

        def gap_at(substeps):
            forcing = oracles.ForcingSpec(
                [(8, f_vec.astype(complex), lambda s: np.exp(-1j * tau * s))],
                substeps=substeps)
            hist = oracles.propagate(fld, 0.5, 8, forcing=forcing)
            ph = np.exp(-1j * tau * (8 * 0.5))  # the last of the 8 steps
            return (np.linalg.norm(hist[-1].w_grid() - ph * u.real)
                    * math.sqrt(gext.h))

        g1, g2 = gap_at(8), gap_at(16)
        # reconstruction error is a small fraction of the forced mass t |F|
        assert g1 < 1e-3 * 4.0 * f_norm
        # and shrinks at least second order in the source step
        assert g2 < 0.35 * g1

    @staticmethod
    def _forced_setup(geom, n):
        grid = Grid(-1.0, 12.0, n)
        x = grid.nodes()
        w0 = bump(x, 2.0, 1.5).astype(complex)
        fld = evolve.wave_field(geom, grid, [(3, 1, w0, -0.4j * w0)])
        forcing = oracles.ForcingSpec(
            [(3, np.exp(-((x - 1.0) ** 2)), lambda s: np.exp(-0.7j * s) + 0.2)], substeps=5)
        return fld, forcing

    def test_streamed_sum_matches_whole_array_sum(self, geom_m1_trapped):
        # reference: the source-time trapezoid sums taken over the whole
        # history at once, as cumulative sums of n x (steps * substeps + 1)
        fld, forcing = self._forced_setup(geom_m1_trapped, 300)
        dt, steps = 0.3, 12
        hist = oracles.propagate(fld, dt, steps, forcing=forcing)
        omega = fld.prop.omega
        _, profile, fn = forcing.entries[0]
        nsub, ds = forcing.substeps, dt / forcing.substeps
        s = ds * np.arange(steps * nsub + 1)
        g = np.array([fn(si) for si in s])
        fhat = fld.prop.to_spectral(profile.astype(complex))
        C, S = (np.concatenate([np.zeros((omega.size, 1)),
                                np.cumsum(0.5 * (e[:, 1:] + e[:, :-1]) * ds, axis=1)], axis=1)
                for e in (f(np.outer(omega, s)) * g for f in (np.cos, np.sin)))
        for i in range(1, steps + 1):
            free = oracles.advanced(fld, i * dt)
            c, sin_t = np.cos(omega * i * dt), np.sin(omega * i * dt)
            Ci, Si = C[:, i * nsub], S[:, i * nsub]
            want = {"a": free.a + (sin_t * Ci - c * Si) * fhat / omega,
                    "b": free.b + (c * Ci + sin_t * Si) * fhat}
            for key, w in want.items():
                got = getattr(hist[i], key)
                assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))

    def test_streamed_sum_memory(self, geom_m1_trapped):
        # summed over the whole history at once, this run peaked at 346 MB;
        # streamed, the peak is the sampled history plus n x substeps blocks
        import tracemalloc

        n, steps = 2000, 400
        fld, forcing = self._forced_setup(geom_m1_trapped, n)
        tracemalloc.start()
        try:
            oracles.propagate(fld, 0.05, steps, forcing=forcing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        history = (steps + 1) * 2 * n * 16
        assert peak < 2 * history

    def test_gap_bound_holds_pointwise(self, geom_m1_trapped):
        grid_i = Grid(-1.0, 0.0, 140)
        qm = build_quasimode(geom_m1_trapped, 12, grid_interval=grid_i)
        rep = evolve.run_confinement(geom_m1_trapped, qm, qm.grid.extended(12.0), T_max=30.0,
                                     R=1.0)
        bound = rep.times * rep.f_norm + 1e-9 * math.sqrt(2.0 * rep.E)
        assert rep.duhamel_gap[0] == 0.0
        assert np.all(rep.duhamel_gap <= bound)
        assert rep.checks["gap_bound"] is bool(np.all(rep.duhamel_gap <= bound))
        assert rep.f_norm == qm.residual_hk[0]

    @settings(max_examples=40)
    @given(m=st.sampled_from([1, 2, 3]), x0=st.floats(-2.0, -0.5), l=st.integers(10, 80),
           wall=st.floats(1.0, 24.0))
    def test_property_f_norm_is_the_quasimode_residual(self, m, x0, l, wall):
        # |F| = |(P - tau^2) u| with P built on the evolution grid, which a
        # run no longer forms: the data vanish before the interval's right
        # end, so the rows the extension adds are zero and |F| is the
        # quasimode's own residual.  Where the extension's spacing, recomputed
        # from its ends, is the interval's to the bit, the two agree to a few
        # ulp; where it is an ulp off, the stencils differ in their last bits,
        # and the two agree to the rounding scale of forming (P - tau^2) u,
        # eps |(|P| + tau^2) |u||, which a high degree's |F| may fall below
        eps = np.finfo(float).eps
        geom = WarpGeometry.of(m, x0)
        qm = build_quasimode(geom, l, interval_grid(geom, l, evolve.EVOLUTION_H_PER_SIGMA))
        assume(qm.bracket.in_bracket)
        grid = qm.grid.extended(wall)
        u = qm.extend_to(grid)
        op = quasimode.mode_operator(geom, l, grid)
        f_vec = op.apply(u) - qm.tau_sq * u
        f_norm = math.sqrt(grid.h * float(np.sum(f_vec**2)))
        scale = (np.abs(op.diag) + qm.tau_sq) * np.abs(u)
        scale[1:] += abs(op.offdiag) * np.abs(u[:-1])
        scale[:-1] += abs(op.offdiag) * np.abs(u[1:])
        assert abs(f_norm - qm.residual_hk[0]) <= eps * math.sqrt(grid.h * np.sum(scale**2))
        if grid.h == qm.grid.h:
            assert abs(f_norm - qm.residual_hk[0]) <= 4 * eps * qm.residual_hk[0]

    @pytest.mark.parametrize("above, ok", [(False, True), (True, False)],
                             ids=["at-bound", "above-bound"])
    def test_gap_verdict_at_the_bound(self, geom_m1_trapped, monkeypatch, above, ok):
        # the run's gaps replaced by t |F| + 1e-9 |data|_H itself, which
        # passes, or with one sample the next float above it, which fails
        qm = build_quasimode(geom_m1_trapped, 12, grid_interval=Grid(-1.0, 0.0, 140))
        grid = qm.grid.extended(12.0)
        ref = evolve.run_confinement(geom_m1_trapped, qm, grid, T_max=30.0, R=1.0, dt=0.5)
        assert ref.times.size <= TILE  # one sweep block, so one gap call
        bound = ref.times * ref.f_norm + 1e-9 * math.sqrt(2.0 * ref.E)
        if above:
            bound[40] = np.nextafter(bound[40], math.inf)
        monkeypatch.setattr(evolve, "_standing_gap", lambda G, alpha, evals, tau, theta: bound)
        rep = evolve.run_confinement(geom_m1_trapped, qm, grid, T_max=30.0, R=1.0, dt=0.5)
        assert np.array_equal(rep.duhamel_gap, bound)
        assert rep.checks["gap_bound"] is ok


class TestConfinement:
    def test_support_must_sit_inside_near_region(self, geom_m1_trapped):
        qm = build_quasimode(geom_m1_trapped, 12, grid_interval=Grid(-1.0, 0.0, 100))
        with pytest.raises(ValueError, match="supported"):
            evolve.run_confinement(geom_m1_trapped, qm, qm.grid.extended(12.0), T_max=10.0,
                                   R=-0.5)

    def test_confined_energy_floor(self, geom_m1_trapped):
        qm = build_quasimode(geom_m1_trapped, 12, grid_interval=Grid(-1.0, 0.0, 120))
        rep = evolve.run_confinement(geom_m1_trapped, qm, qm.grid.extended(14.0), T_max=40.0,
                                     R=1.0, le1=True)
        assert rep.ratio_E_R.min() >= 0.9
        assert rep.t_confinement == math.inf
        assert rep.checks["half_bound"]
        assert rep.energy_drift < 1e-9
        # accumulated space-time norm grows like sqrt(T) on a confined state
        growth = rep.le1_at(40.0) / rep.le1_at(10.0)
        assert growth == pytest.approx(2.0, rel=0.1)

    def test_energy_drift_checks_every_256th_sample(self, geom_m1_trapped, monkeypatch):
        # damping the sweep blocks makes the grid energy fall with time, so
        # the reported drift is the one at the last checked sample
        qm = build_quasimode(geom_m1_trapped, 12, grid_interval=Grid(-1.0, 0.0, 120))
        grid_ext = qm.grid.extended(13.0)
        damp_sweep_blocks(monkeypatch, 1e-7)
        rep = evolve.run_confinement(geom_m1_trapped, qm, grid_ext, T_max=60.0, R=1.0, dt=0.1)
        prop = evolve.get_propagator(geom_m1_trapped, 12, grid_ext)
        u = qm.extend_to(grid_ext)
        mode = evolve.ModeState.from_grid_data(prop, u.astype(complex), -1j * qm.tau * u)
        E = mode.energy_spectral()

        def drift(t):
            w, wt = prop.from_spectral(
                damped_phase_block(mode.a, mode.b, prop.omega, np.array([t]), 1e-7)).T
            e = 0.5 * (oracles.quad_form(prop.op, w)
                       + grid_ext.h * float(np.sum(np.abs(wt) ** 2)))
            return abs(e - E) / E

        assert rep.times.size == 601
        checked = [drift(t) for t in rep.times[::256]]
        assert rep.energy_drift == pytest.approx(max(checked), rel=1e-9)
        assert rep.energy_drift < 0.9 * drift(rep.times[-1])

    def test_energy_drift_tiles_match_one_block(self, geom_m1_trapped, monkeypatch):
        # every sample checked, so the drift reconstructs more than
        # _DRIFT_TILE samples, a tile at a time; damping makes the drift grow
        # with time, so a tile at the wrong times would move it
        monkeypatch.setattr(evolve, "_DRIFT_STRIDE", 1)
        qm = build_quasimode(geom_m1_trapped, 12, grid_interval=Grid(-1.0, 0.0, 120))
        grid_ext = qm.grid.extended(5.0)
        damp_sweep_blocks(monkeypatch, 1e-7)
        rep = evolve.run_confinement(geom_m1_trapped, qm, grid_ext, T_max=15.0, R=1.0, dt=0.1)
        m = rep.times.size
        assert m > 2 * evolve._DRIFT_TILE
        mode = evolve.data_field(geom_m1_trapped, qm, grid_ext)
        prop, E = mode.prop, mode.energy_spectral()
        WW = prop.from_spectral(
            damped_phase_block(mode.a, mode.b, prop.omega, 0.1 * np.arange(m), 1e-7))
        one_block = max(
            abs(0.5 * (oracles.quad_form(prop.op, w) + prop.h * float(np.sum(np.abs(wt) ** 2)))
                - E) / E
            for w, wt in zip(WW[:, :m].T, WW[:, m:].T))
        assert one_block > 1e-6
        assert abs(rep.energy_drift - one_block) <= 1e-14

    def test_energy_drift_matches_per_sample_loop(self, monkeypatch):
        # the drift reduced from each tile's raw product against the former
        # per-sample loop over the complex reconstruction, on complex data
        # over three tiles; damping makes the energies move, and each agrees
        # with the loop's within 1e-13 relative to the conserved energy
        def per_sample_drift(mode, dt, m):
            prop, E, drift = mode.prop, mode.energy_spectral(), 0.0
            for j0 in range(0, m, tile):
                k = min(tile, m - j0)
                WW = prop.from_spectral(damped_phase_block(
                    mode.a, mode.b, prop.omega, j0 * dt + dt * np.arange(k), 1e-6))
                for w, wt in zip(WW[:, :k].T, WW[:, k:].T):
                    e = 0.5 * (oracles.quad_form(prop.op, w)
                               + prop.h * float(np.sum(np.abs(wt) ** 2)))
                    drift = max(drift, abs(e - E) / E)
            return drift

        tile = evolve._DRIFT_TILE
        mode, _, _ = random_mode(-1.0, 6.0, 300, 5, 11)
        damp_sweep_blocks(monkeypatch, 1e-6)
        m = 2 * tile + 7
        ref = per_sample_drift(mode, 0.3, m)
        assert ref > 1e-5
        assert abs(evolve._energy_drift(mode, 0.3, m) - ref) <= 1e-13

    def test_energy_drift_peak_memory(self, geom_m1_trapped):
        # more drift samples than one tile: the check holds one tile's block
        # and raw product, 4 rows a sample each, and the two temporaries of
        # op.apply, 2 rows a sample each, plus the two complex parts; one
        # 64-sample tile peaks at 2.6 times this
        import tracemalloc

        qm = build_quasimode(geom_m1_trapped, 20, grid_interval=interval_grid(
            geom_m1_trapped, 20, evolve.EVOLUTION_H_PER_SIGMA))
        mode = evolve.data_field(geom_m1_trapped, qm, qm.grid.extended(12.0))
        n, tile = mode.grid.n_interior, evolve._DRIFT_TILE
        tracemalloc.start()
        try:
            evolve._energy_drift(mode, 0.5, 4 * tile + 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (3 * 4 * tile + 8)

    def test_tiled_passes_peak_memory(self, geom_m1_trapped):
        # with the propagator cached, a run holds tile-sized temporaries:
        # 0.80 x 8n^2 with 256-sample blocks, about 0.3 x 8n^2 with 64
        import tracemalloc

        grid_i = interval_grid(geom_m1_trapped, 20, evolve.EVOLUTION_H_PER_SIGMA)
        qm = build_quasimode(geom_m1_trapped, 20, grid_interval=grid_i)
        assert qm.bracket.in_bracket
        grid_ext = qm.grid.extended(12.0)
        n = grid_ext.n_interior
        evolve.get_propagator(geom_m1_trapped, 20, grid_ext)
        tracemalloc.start()
        try:
            evolve.run_confinement(geom_m1_trapped, qm, grid_ext, T_max=400.0, R=1.0, dt=1.0,
                                   le1=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 2612
        assert peak <= 0.5 * 8 * n * n

    def test_le1_stride_rule(self):
        # k matches max(dt, T/500) when T/(500 dt) is whole or below 1
        assert evolve._le_stride(1000.0, 1.0) == 2
        assert evolve._le_stride(40.0, 0.1) == 1
        assert evolve._le_stride(3.0, 0.25) == 1
        # and samples finer than T/500 otherwise
        assert evolve._le_stride(40.0, 0.03) == 2

    def test_default_sample_step(self):
        # T / min(1000, ceil(T / h)): whole steps that end at T, no longer
        # than T / 1000 or the grid step h; an h longer than T gives the two
        # samples 0 and T
        assert evolve.sample_count(1000.0, None, 0.5) == (1.0, 1001)
        assert evolve.sample_count(10.0, None, 0.5) == (0.5, 21)
        assert evolve.sample_count(10.0, None, 0.0399) == (10.0 / 251, 252)
        assert evolve.sample_count(0.001, None, 0.004975) == (0.001, 2)
        assert evolve.sample_count(0.004, None, 0.004975) == (0.004, 2)
        assert evolve.sample_count(4.0, 3.0, 0.5) == (3.0, 2)

    @settings(max_examples=500)
    @given(T=st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
           h=st.floats(-4.0, 0.0).map(lambda e: 10.0**e))
    def test_property_default_samples_end_at_the_horizon(self, T, h):
        step, n = evolve.sample_count(T, None, h)
        assert 2 <= n <= 1001
        # T / ceil(T / h) passes h by an ulp where T / h rounds down onto a
        # whole number, as at T = 0.159, h = 0.0003
        assert step <= max(T / 1000.0, h) * (1.0 + EPS)
        assert abs(step * (n - 1) - T) <= 2 * EPS * T

    def test_le1_samples_end_at_or_below_horizon(self, geom_m1_trapped):
        qm = build_quasimode(geom_m1_trapped, 12, grid_interval=Grid(-1.0, 0.0, 120))
        with mock.patch.object(evolve, "_le_stride", lambda T_max, dt: 3):
            rep = evolve.run_confinement(geom_m1_trapped, qm, qm.grid.extended(12.0),
                                         T_max=3.5, R=1.0, dt=0.25, le1=True)
        assert rep.times[-1] == 3.5
        assert np.array_equal(rep.le1_times, rep.times[::3])
        assert rep.le1_times[-1] == 3.0

    @settings(max_examples=60)
    @given(m=st.sampled_from([1, 2, 3]), x0=st.floats(-1.5, -0.5), l=st.integers(1, 14),
           n=st.integers(40, 120), reach=st.floats(0.0, 1.0), dt=st.floats(0.02, 0.3),
           k=st.sampled_from([1, 2, 3]), spans=st.integers(1, 70))
    def test_property_sweep_matches_separate_passes(self, m, x0, l, n, reach, dt, k, spans):
        # the one-sweep run against the Duhamel bound, the E_R band pass (also
        # over the wall strip, as the whole grid minus the rows before it) and
        # the space-time norm pass on the same field; at most 600 nodes
        geom = WarpGeometry.of(m, x0)
        qm = build_quasimode(geom, l, grid_interval=Grid(x0, 0.0, n))
        h = qm.grid.h
        x_max = 1.0 + reach * (x0 + 600 * h - 1.0)
        T = spans * k * dt
        with mock.patch.object(evolve, "_le_stride", lambda T_max, dt: k):
            rep = evolve.run_confinement(geom, qm, qm.grid.extended(x_max), T_max=T, R=1.0,
                                         dt=dt, le1=True)
        fld = rep.state
        assert fld.grid.n_interior <= 600
        assert rep.checks["gap_bound"]
        assert rep.f_norm == qm.residual_hk[0]
        times, er = evolve.er_history(fld, T, 1.0, dt=dt)
        assert np.array_equal(times, rep.times)
        assert np.allclose(rep.E_R, er, rtol=1e-12, atol=0.0)
        x = fld.grid.nodes()
        n_buf = int(np.searchsorted(x, fld.grid.x_right - evolve._WALL_MARGIN))
        whole = evolve.er_history(fld, T, fld.grid.x_right, dt=dt)[1]
        before = evolve.er_history(fld, T, x[n_buf - 1], dt=dt)[1] if n_buf else 0.0
        assert abs(rep.wall_buffer_max - np.max(whole - before)) <= 1e-12 * rep.E
        norms, running = evolve.space_time_norms(fld, T, k * dt)
        assert np.allclose(rep.le1_times, norms.times, rtol=1e-12, atol=0.0)
        assert np.allclose(rep.le1_running, running, rtol=1e-12, atol=0.0)
        if k == 1:
            # the same blocks through the same LE1 feed
            assert np.array_equal(rep.le1_times, norms.times)
            assert np.array_equal(rep.le1_running, running)

    def test_open_side_energy_escapes(self, geom_m1_front):
        grid = Grid(1.0, 30.0, 1100)
        x = grid.nodes()
        w0 = bump(x, 2.5, 0.5).astype(complex)
        from warptrap.spectral import fd_derivative

        w1 = -fd_derivative(grid, w0, 1)
        fld = evolve.wave_field(geom_m1_front, grid, [(1, 1, w0, w1)])
        times, er = evolve.er_history(fld, 20.0, R=4.0, dt=0.25)
        ratio = er / er[0]
        below = np.nonzero(ratio < 0.5)[0]
        assert below.size > 0
        # the drop happens within a few multiples of the region size
        assert times[below[0]] < 4.0 + 2 * (3.0 - 1.0)
        assert ratio[-1] < 0.1


def general_field(geom, qm, grid_ext):
    """``data_field``'s data, built through ``from_grid_data``: the same
    coefficients, but not marked as a standing wave, so its sweeps take the
    two parts of any state."""
    u = qm.extend_to(grid_ext)
    prop = evolve.get_propagator(geom, qm.l, grid_ext)
    return evolve.ModeState.from_grid_data(prop, u.astype(complex), -1j * qm.tau * u)


EPS = np.finfo(float).eps


class TestStandingLayout:
    """A standing wave (v, -i tau v), v real, sweeps one part, two real GEMM
    rows per sample, and forms dt w from the mode operator P: Re dt w =
    -P Y.  P scales the GEMM's roundoff in Y by up to its norm_bound, where
    the exact P Y is about tau^2 Y, so energies move by about eps *
    norm_bound / tau^2 of E from the two parts' values (at most twice that,
    measured); the Duhamel gap reads no P, and moves by a few eps *
    sqrt(2E)."""

    @staticmethod
    def bound(state):
        return 16 * EPS * state.prop.op.norm_bound / state.standing_tau**2

    @staticmethod
    def gap_bound(state, t):
        """How far a gap up to time t may move between builds: a few eps *
        sqrt(2E) from its sums, plus the rounding of the phases where the
        builds round them apart.  Each mode's angle omega t is rounded to a
        few eps * omega t, which rotates its (a, b) by that angle, so the
        state moves by at most 8 eps * t * |B data| in the energy norm, with
        |B data|^2 = graph_sq(1) = Sum lambda (lambda |a|^2 + |b|^2)."""
        return EPS * (64 * math.sqrt(2.0 * state.energy_spectral())
                      + 8 * t * math.sqrt(state.graph_sq(1)))

    @settings(max_examples=60)
    @given(m=st.sampled_from([1, 2, 3]), x0=st.floats(-1.5, -0.5), l=st.integers(1, 14),
           n=st.integers(40, 120), reach=st.floats(0.0, 1.0), dt=st.floats(0.02, 0.3),
           k=st.sampled_from([1, 2, 3]), spans=st.integers(1, 70), r=st.floats(0.0, 1.0))
    def test_property_layouts_agree(self, m, x0, l, n, reach, dt, k, spans, r):
        # R for er_history runs from the data's support to past the wall, so
        # its band touches the grid's first node and, past the wall, also
        # its last; run_confinement's wall strip ends at the last node
        geom = WarpGeometry.of(m, x0)
        qm = build_quasimode(geom, l, grid_interval=Grid(x0, 0.0, n))
        x_max = 1.0 + reach * (x0 + 600 * qm.grid.h - 1.0)
        T = spans * k * dt
        grid = qm.grid.extended(x_max)
        fld, gen = evolve.data_field(geom, qm, grid), general_field(geom, qm, grid)
        assert fld.standing_tau == qm.tau and gen.standing_tau is None
        assert np.array_equal(fld.a, gen.a) and np.array_equal(fld.b, gen.b)
        tol, E = self.bound(fld), fld.energy_spectral()

        with mock.patch.object(evolve, "_le_stride", lambda T_max, dt: k):
            rep = evolve.run_confinement(geom, qm, grid, T_max=T, R=1.0, dt=dt, le1=True)
        assert rep.state.grid == grid and rep.E == gen.energy_spectral()
        # the general state's E_R, wall band (the whole grid minus the rows
        # before the strip) and LE1 from its own sweeps; its gap from the
        # direct phases, and within a few eps * sqrt(2E) from the two-part
        # blocks of the sweep's own tiles and phase tables
        assert np.max(np.abs(rep.E_R - evolve.er_history(gen, T, 1.0, dt=dt)[1])) <= tol * E
        x = grid.nodes()
        n_buf = int(np.searchsorted(x, grid.x_right - evolve._WALL_MARGIN))
        whole = evolve.er_history(gen, T, grid.x_right, dt=dt)[1]
        before = evolve.er_history(gen, T, x[n_buf - 1], dt=dt)[1] if n_buf else 0.0
        assert abs(rep.wall_buffer_max - np.max(whole - before)) <= tol * E
        AB = direct_phase_block(gen.a, gen.b, gen.prop.omega, rep.times)
        gap = abs_rotation_gap(AB, gen.a, gen.b, gen.prop.evals,
                               np.exp(-1j * qm.tau * rep.times))
        assert np.max(np.abs(rep.duhamel_gap - gap)) <= self.gap_bound(gen, T)
        dt_s, times = evolve._sample_times(T, dt, grid.h)
        assert np.array_equal(times, rep.times)
        gap = builder_gap(gen, qm.tau, times, dt_s, k)
        assert np.max(np.abs(rep.duhamel_gap - gap)) <= 64 * EPS * math.sqrt(2 * E)
        assert rep.duhamel_gap[0] == 0.0
        le1 = evolve.space_time_norms(gen, T, k * dt)[1]
        assert np.allclose(rep.le1_running, le1, rtol=tol, atol=0.0)

        R = qm.cutoff.support_end + r * (grid.x_right + 1.0 - qm.cutoff.support_end)
        er_s = evolve.er_history(fld, T, R, dt=dt)[1]
        er_g = evolve.er_history(gen, T, R, dt=dt)[1]
        assert np.max(np.abs(er_s - er_g)) <= tol * E

        (ns, rs), (ng, rg) = (evolve.space_time_norms(s, T, k * dt) for s in (fld, gen))
        for name in ("le", "le1", "le_star"):
            assert getattr(ns, name) == pytest.approx(getattr(ng, name), rel=tol, abs=0.0)
        assert np.allclose(rs, rg, rtol=tol, atol=0.0)

    def test_gemm_operand_rows_per_sample(self, geom_m1_trapped, oscillating_field,
                                          monkeypatch):
        # every sample of space_time_norms is reconstructed once on the whole
        # grid: two real operand columns per sample for quasimode data, four
        # for complex bump data, two for real bump data, whose second part is
        # zero, and every sweep operand is float64
        columns, dtypes = [], set()
        raw = evolve._raw_product

        def spy(M, X):
            columns.append(X.shape[1] * (2 if np.iscomplexobj(X) else 1))
            dtypes.add(X.dtype)
            return raw(M, X)

        monkeypatch.setattr(evolve, "_raw_product", spy)
        qm = build_quasimode(geom_m1_trapped, 12, grid_interval=Grid(-1.0, 0.0, 120))
        fld = evolve.data_field(geom_m1_trapped, qm, qm.grid.extended(12.0))
        grid = oscillating_field.grid
        w0 = bump(grid.nodes(), 1.5, 0.9)
        real = evolve.wave_field(geom_m1_trapped, grid,
                                 [(4, 1, w0, -fd_derivative(grid, w0, 1))])
        T, dt = 30.0, 0.25
        for state, rows in ((fld, 2), (oscillating_field, 4), (real, 2)):
            columns.clear()
            dtypes.clear()
            evolve.space_time_norms(state, T, dt)
            _, times = evolve._sample_times(T, dt, state.grid.h)
            assert times.size > TILE
            assert sum(columns) == rows * times.size
            assert dtypes == {np.dtype(np.float64)}

    @settings(max_examples=40)
    @given(m=st.integers(1, 2 * TILE), dt=st.floats(0.01, 2.0), tau=st.floats(0.5, 30.0),
           **mode_draws)
    def test_property_standing_gap_matches_abs_form(self, m, dt, tau, n, x0, span, l, seed):
        # random standing data (v, -i tau v), v real, of any tau: the gap of
        # its one-part sweep blocks against the complex differences of the
        # direct phases
        prop = evolve.ModePropagator(WarpGeometry.of(1, x0), l, Grid(x0, x0 + span, n))
        v = np.random.default_rng(seed).standard_normal(n)
        state = evolve.ModeState.from_grid_data(prop, v.astype(complex), -1j * tau * v)
        times = dt * np.arange(m)
        got = evolve._sweep(dataclasses.replace(state, standing_tau=tau), times, dt)[1]
        AB = direct_phase_block(state.a, state.b, prop.omega, times)
        ref = abs_rotation_gap(AB, state.a, state.b, prop.evals,
                               np.exp(-1j * tau * times))
        assert got[0] == 0.0
        assert np.max(np.abs(got - ref)) <= self.gap_bound(state, times[-1])
        ref = builder_gap(state, tau, times, dt)
        assert np.max(np.abs(got - ref)) <= 64 * EPS * math.sqrt(2 * state.energy_spectral())


class TestPropagatorCache:
    def test_one_slot(self, geom_m1_trapped, monkeypatch):
        monkeypatch.setattr(evolve, "_PROP_CACHE", {})
        first = evolve.get_propagator(geom_m1_trapped, 1, Grid(-1.0, 5.0, 100))
        # equal parameters and grid, fresh objects: the same propagator
        assert evolve.get_propagator(WarpGeometry.of(1, -1.0), 1,
                                     Grid(-1.0, 5.0, 100)) is first
        old = weakref.ref(first)
        del first
        full, seen = evolve.eigen_full, []

        def spy(op):
            seen.append(old() is None)
            return full(op)

        # a new key frees the cached propagator before its own solve, and
        # its repeat is a hit
        monkeypatch.setattr(evolve, "eigen_full", spy)
        second = evolve.get_propagator(geom_m1_trapped, 1, Grid(-1.0, 5.0, 110))
        assert evolve.get_propagator(geom_m1_trapped, 1, Grid(-1.0, 5.0, 110)) is second
        assert seen == [True]


class TestGrowthExperiment:
    def test_running_ratio_tracks_sqrt_horizon(self, geom_m1_trapped):
        qm = build_quasimode(geom_m1_trapped, 14, grid_interval=Grid(-1.0, 0.0, 120))
        rep = evolve.run_confinement(geom_m1_trapped, qm, qm.grid.extended(12.0), 40.0, R=1.0,
                                     le1=True)
        assert rep.le1_at(40.0) / rep.le1_at(10.0) == pytest.approx(2.0, rel=0.1)


def flip_half(n, seed):
    """A seeded random half of n column indices, rounded up."""
    return np.random.default_rng(seed).permutation(n)[:(n + 1) // 2]


class TestEigenvectorSigns:
    """No output reads an eigenvector's sign: negating column j negates the
    spectral coefficient c_j and every phase-block entry exactly, so each
    reconstructed product, and every energy and norm, is bit-identical."""

    def outputs(self, geom):
        qm = build_quasimode(geom, 12, grid_interval=Grid(-1.0, 0.0, 120))
        rep = evolve.run_confinement(geom, qm, qm.grid.extended(12.0), 30.0, R=1.0, le1=True)
        grid = Grid(-1.0, 9.0, 500)
        v0 = (bump(grid.nodes(), 1.5, 0.9) * np.exp(2.0j * grid.nodes())).astype(complex)
        fld = evolve.wave_field(geom, grid, [(4, 1, v0, 0.5 * v0)])
        norms, running = evolve.space_time_norms(fld, 20.0, 0.25)
        return qm, {
            "E_R": rep.E_R, "duhamel_gap": rep.duhamel_gap, "le1_running": rep.le1_running,
            "wall_buffer_max": rep.wall_buffer_max, "energy_drift": rep.energy_drift,
            "le": norms.le, "le1": norms.le1, "le_star": norms.le_star,
            "running_le1": running,
            "er_history": evolve.er_history(fld, 20.0, 1.0, dt=0.25)[1],
            "dbk_norm": [dbk_norm(fld, k)[0] for k in range(3)],
            "residual_hk": list(qm.residual_hk.values()), "agmon_ratio": qm.agmon_ratio,
        }

    def test_outputs_do_not_read_eigenvector_signs(self, geom_m1_trapped, monkeypatch):
        full, lowest = evolve.eigen_full, quasimode.lowest_pair

        def flipped_full(op):
            vals, vecs = full(op)
            vecs[:, flip_half(vecs.shape[1], 5)] *= -1.0
            return vals, vecs

        def flipped_lowest(op):
            value, vec = lowest(op)
            return value, -vec

        monkeypatch.setattr(evolve, "_PROP_CACHE", {})
        qm_ref, ref = self.outputs(geom_m1_trapped)
        monkeypatch.setattr(evolve, "_PROP_CACHE", {})
        monkeypatch.setattr(evolve, "eigen_full", flipped_full)
        monkeypatch.setattr(quasimode, "lowest_pair", flipped_lowest)
        qm, got = self.outputs(geom_m1_trapped)
        assert np.array_equal(qm.u, -qm_ref.u)  # the flip reached the quasimode
        for key, want in ref.items():
            assert np.array_equal(got[key], want), key


class TestNorms:
    def test_history_and_batched_norms_agree(self, small_field, geom_m1_trapped):
        hist = oracles.propagate(small_field, 0.25, 24)
        n1 = oracles.le_norms(hist, 0.25 * np.arange(25))
        n2, running = evolve.space_time_norms(small_field, 6.0, 0.25)
        assert n1.le1 == pytest.approx(n2.le1, rel=1e-12)
        assert n1.le == pytest.approx(n2.le, rel=1e-12)
        assert n1.le_star == pytest.approx(n2.le_star, rel=1e-12)
        assert running[-1] == pytest.approx(n2.le1, rel=1e-12)

    def test_one_block_alive_at_a_time(self, oscillating_field):
        # complex data, two parts: a block of TILE samples holds its phase
        # block and raw product, 4 rows of n a sample each, and its densities
        # are formed in place in the product; 64 rows more cover the state's
        # parts, the warp factors and the accumulator.  A block's densities
        # kept alive while the next block is built add about 4 rows a sample
        import tracemalloc

        n = oscillating_field.grid.n_interior
        T, dt = 60.0, 0.25
        assert evolve._sample_times(T, dt, oscillating_field.grid.h)[1].size > 3 * TILE
        tracemalloc.start()
        try:
            evolve.space_time_norms(oscillating_field, T, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (8 * TILE + 64)

    def test_le_norms_rejects_empty(self):
        with pytest.raises(ValueError):
            oracles.le_norms([], [])

    def test_stationary_single_shell_value(self, geom_m1_trapped):
        # time-independent state confined to shell 0: LE = |u| * sqrt(T)
        grid = Grid(-1.0, 14.0, 700)
        x = grid.nodes()
        w0 = bump(x, 0.0, 0.5).astype(complex)
        prop = evolve.get_propagator(geom_m1_trapped, 1, grid)
        mode = evolve.ModeState.from_grid_data(prop, w0, np.zeros_like(w0))
        T = 4.0
        norms = oracles.le_norms([mode] * 41, np.linspace(0, T, 41))
        expect = math.sqrt(grid.h * np.sum(np.abs(w0) ** 2)) * math.sqrt(T)
        # agreement down to the spectral round-trip floor
        assert norms.le == pytest.approx(expect, rel=1e-9)
        # a single-shell state makes the dual sum collapse to the sup
        assert norms.le_star == pytest.approx(norms.le, rel=1e-9)

    def test_shifted_shell_scaling(self, geom_m1_trapped):
        grid = Grid(-1.0, 40.0, 900)
        x = grid.nodes()
        prop = evolve.get_propagator(geom_m1_trapped, 0, grid)
        T = 2.0
        les = []
        for center, j in ((0.0, 0), (5.0, 2), (10.0, 3)):
            w0 = bump(x, center, 0.4).astype(complex)
            w0 /= math.sqrt(grid.h * np.sum(np.abs(w0) ** 2))
            mode = evolve.ModeState.from_grid_data(prop, w0, np.zeros_like(w0))
            norms = oracles.le_norms([mode] * 21, np.linspace(0, T, 21))
            les.append((norms.le, j))
        for le, j in les:
            assert le == pytest.approx(2.0 ** (-j / 2) * math.sqrt(T), rel=1e-9)


class TestCrossSite:
    """Every site that reduces the energy density agrees with one oracle
    written here on complex arrays with ``fd_derivative``."""

    @staticmethod
    def oracle(state, geom, extra=0.0):
        """(|w|^2, |dt w|^2 + |dx w - (a'/a) w|^2 + (sigma^2 a^-2 + extra) |w|^2)."""
        grid = state.grid
        x = grid.nodes()
        ratio, inv_a2 = geom.da(x) / geom.a(x), geom.inv_a_sq(x)
        w, wt = state.w_grid(), state.wt_grid()
        pot = state.prop.l * (state.prop.l + 1) * inv_a2 + extra
        u = np.abs(w) ** 2
        e = (np.abs(wt) ** 2 + np.abs(fd_derivative(grid, w, 1) - ratio * w) ** 2
             + pot * np.abs(w) ** 2)
        return u, e

    @classmethod
    def oracle_le(cls, field, geom, T, dt):
        """LE, LE1, LE* and the running LE1 by shell masks and the trapezoid rule."""
        grid = field.grid
        x = grid.nodes()
        bracket = np.sqrt(1.0 + x * x)
        shell = np.floor(np.log2(bracket)).astype(int)
        times = dt * np.arange(int(round(T / dt)) + 1)
        U, E1 = [], []
        for t in times:
            u, e = cls.oracle(oracles.advanced(field, t), geom, 1.0 / bracket**2)
            U.append([grid.h * np.sum(u[shell == j]) for j in range(shell.max() + 1)])
            E1.append([grid.h * np.sum(e[shell == j]) for j in range(shell.max() + 1)])
        U, E1 = (np.vstack([np.zeros((1, A.shape[1])),
                            np.cumsum(0.5 * (A[1:] + A[:-1]) * dt, axis=0)])
                 for A in (np.asarray(U), np.asarray(E1)))
        j = np.arange(U.shape[1])
        le = np.max(2.0 ** (-0.5 * j) * np.sqrt(U[-1]))
        le1_running = np.max(2.0 ** (-0.5 * j) * np.sqrt(E1), axis=1)
        le_star = np.sum(2.0 ** (0.5 * j) * np.sqrt(U[-1]))
        return le, le1_running[-1], le_star, le1_running

    def test_near_energy_sites_agree(self, oscillating_field, geom_m1_trapped):
        grid = oscillating_field.grid
        R, T, dt = 2.0, 3.0, 0.25
        times, er = evolve.er_history(oscillating_field, T, R, dt=dt)
        near = grid.nodes() <= R
        for i in (0, 5, 12):
            state = oracles.advanced(oscillating_field, times[i])
            want = 0.5 * grid.h * np.sum(self.oracle(state, geom_m1_trapped)[1][near])
            assert er[i] == pytest.approx(want, rel=1e-12)
            got = oracles.energy_norms(state, R)["E_R"]
            assert got == pytest.approx(want, rel=1e-12)

    def test_space_time_sites_agree(self, oscillating_field, geom_m1_trapped):
        T, dt = 3.0, 0.25
        le, le1, le_star, _ = self.oracle_le(oscillating_field, geom_m1_trapped, T, dt)
        steps = int(round(T / dt))
        hist = oracles.propagate(oscillating_field, dt, steps)
        for norms in (oracles.le_norms(hist, dt * np.arange(steps + 1)),
                      evolve.space_time_norms(oscillating_field, T, dt)[0]):
            assert norms.le == pytest.approx(le, rel=1e-12)
            assert norms.le1 == pytest.approx(le1, rel=1e-12)
            assert norms.le_star == pytest.approx(le_star, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2], ids=["dt_le=dt", "dt_le=2dt"])
    def test_confinement_run_agrees(self, geom_m1_trapped, k, monkeypatch):
        # with LE1 stride 2, samples 0 and 12 come from the whole-grid LE1
        # reconstruction and sample 5 from the E_R band's
        qm = build_quasimode(geom_m1_trapped, 12, grid_interval=Grid(-1.0, 0.0, 120))
        T, dt = 3.0, 0.25
        dt_le = k * dt
        monkeypatch.setattr(evolve, "_le_stride", lambda T_max, dt: k)
        rep = evolve.run_confinement(geom_m1_trapped, qm, qm.grid.extended(12.0), T_max=T,
                                     R=1.0, dt=dt, le1=True)
        fld = evolve.data_field(geom_m1_trapped, qm, qm.grid.extended(12.0))
        near = fld.grid.nodes() <= 1.0
        for i in (0, 5, 12):
            _, e = self.oracle(oracles.advanced(fld, rep.times[i]), geom_m1_trapped)
            assert rep.E_R[i] == pytest.approx(0.5 * fld.grid.h * np.sum(e[near]), rel=1e-12)
        running = self.oracle_le(fld, geom_m1_trapped, T, dt_le)[3]
        assert np.allclose(rep.le1_running, running, rtol=1e-12, atol=0.0)


class TestOneDensityBody:
    """The one density body of every sweep, over one real part (real data),
    two (complex data) and the two derived parts of a standing wave, against
    ``oracles._state_densities``, which forms the densities from complex
    nodal values with its own stencil, one state at a time."""

    @staticmethod
    def state(kind, prop, v, w, tau):
        if kind == "real":
            return evolve.ModeState.from_grid_data(prop, v, w)
        if kind == "complex":
            return evolve.ModeState.from_grid_data(prop, v + 1j * w, w - 0.5j * v)
        state = evolve.ModeState.from_grid_data(prop, v.astype(complex), -1j * tau * v)
        return dataclasses.replace(state, standing_tau=tau)

    @staticmethod
    def scale(state, t):
        """The energy scale of the disagreement at time t.  The GEMM and the
        density sums round to a few eps * E (under 1 eps * E measured at
        t = 0).  The sweep and the oracle round each phase apart, which moves
        the state by at most 8 eps * t * |B data| in the energy norm (see
        ``TestStandingLayout.gap_bound``), so a band energy by about
        sqrt(2E) times that.  A standing wave's P stencil scales the GEMM's
        roundoff in Y by up to norm_bound, and random data reaches down to
        the lowest frequency, where |Y| <= |alpha| / omega_min with
        lambda_min |alpha|^2 <= 2E: so its energies move by about eps *
        norm_bound / lambda_min * E more (``TestStandingLayout.bound`` with
        omega_min in place of tau).  The tests allow 16 eps times the
        scale, which is at least 16 times what 400 draws measured."""
        E = state.energy_spectral()
        s = E + t * math.sqrt(state.graph_sq(1)) * math.sqrt(2.0 * E)
        if state.standing_tau is not None:
            s += state.prop.op.norm_bound / state.prop.evals[0] * E
        return s

    @settings(max_examples=60)
    @given(kind=st.sampled_from(["real", "complex", "standing"]), warp=st.sampled_from([1, 2, 3]),
           tau=st.floats(0.5, 30.0), dt=st.floats(0.01, 2.0), k=st.sampled_from([1, 2, 3]),
           m=st.integers(2, 2 * TILE + 10), near=st.floats(0.0, 1.0), wall=st.floats(0.0, 1.0),
           **mode_draws)
    def test_property_sweep_matches_oracle(self, kind, warp, tau, dt, k, m, near, wall, n, x0,
                                           span, l, seed):
        # the E_R band starts at the grid's first node and the wall band ends
        # at its last; given a reducer, here one that keeps nothing, every
        # k-th sample is reconstructed on the whole grid, the others on the
        # two bands only
        geom = WarpGeometry.of(warp, x0)
        prop = evolve.ModePropagator(geom, l, Grid(x0, x0 + span, n))
        v, w = np.random.default_rng(seed).standard_normal((2, n))
        state = self.state(kind, prop, v, w, tau)
        # real data is one part: the second of its two parts is zero
        zs = evolve._wave_parts(state.a, state.b, prop.omega)
        assert (kind == "real") == (not zs[1].any())
        nR, n_buf = 1 + int(near * (n - 1)), int(wall * (n - 1))
        times = dt * np.arange(m)
        (E_R, wall_e), _ = evolve._sweep(state, times, dt, k, ((0, nR), (n_buf, n)),
                                         reduce=lambda *block: None)
        ratio, inv_a2 = evolve._warp_factors(geom, prop.grid)
        pot = state.sigma_sq * inv_a2
        hist = [oracles.advanced(state, t) for t in times]
        for i, s in enumerate(hist):
            _, e = oracles._state_densities(s.w_grid(), s.wt_grid(), prop.h, ratio, pot)
            tol = 16 * EPS * self.scale(state, times[i])
            assert abs(E_R[i] - 0.5 * prop.h * np.sum(e[:nR])) <= tol
            assert abs(wall_e[i] - 0.5 * prop.h * np.sum(e[n_buf:])) <= tol

        # LE, LE1 and LE*: square roots of time integrals of the densities'
        # shell sums, so relative to E they move by at most the scale at T
        got = evolve.space_time_norms(state, times[-1], dt)[0]
        want = oracles.le_norms(hist, times)
        rel = 16 * EPS * self.scale(state, times[-1]) / state.energy_spectral()
        for name in ("le", "le1", "le_star"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=rel, abs=0.0)


class TestEnergyNorms:
    def test_pure_velocity_data(self, geom_m1_trapped):
        # field value zero, velocity of squared volume-mass 2: energy is 1
        grid = Grid(-1.0, 9.0, 400)
        x = grid.nodes()
        phi = bump(x, 1.0, 0.8)
        w1 = phi / math.sqrt(0.5 * grid.h * np.sum(phi**2))  # |w1|_h^2 = 2
        fld = evolve.wave_field(geom_m1_trapped, grid,
                                [(0, 1, np.zeros_like(w1, dtype=complex),
                                  w1.astype(complex))])
        en = oracles.energy_norms(fld, R=3.0)
        assert en["E"] == pytest.approx(1.0, rel=1e-10)
        assert en["H_x0_norm"] == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_zero_state(self, geom_m1_trapped):
        grid = Grid(-1.0, 9.0, 120)
        z = np.zeros(120, dtype=complex)
        fld = evolve.wave_field(geom_m1_trapped, grid, [(0, 1, z, z)])
        en = oracles.energy_norms(fld, R=3.0)
        assert en["E"] == 0.0 and en["E_R"] == 0.0 and en["H_x0_norm"] == 0.0

    def test_rejects_radius_behind_wall(self, small_field):
        with pytest.raises(ValueError):
            oracles.energy_norms(small_field, R=-1.5)

    def test_graph_norm_constant_bounded_over_modes(self, geom_m1_trapped):
        # |data|_{D(B^k)} / (tau^k |data|_H) stays near one across the family
        from warptrap.quasimode import build_quasimode

        for l in (14, 20):
            qm = build_quasimode(geom_m1_trapped, l, grid_interval=Grid(-1.0, 0.0, 160))
            gext = qm.grid.extended(8.0)
            fld = evolve.data_field(geom_m1_trapped, qm, gext)
            base = oracles.energy_norms(fld, R=3.0)["H_x0_norm"]
            for k in (1, 2):
                ck = dbk_norm(fld, k)[0] / (qm.tau**k * base)
                assert 0.9 <= ck <= 2.1


class TestConjugation:
    def test_energies_agree_between_variables(self, small_field, geom_m1_trapped):
        # converting the evolved conjugated variable back to the field value
        # and re-conjugating changes nothing but roundoff in the energies
        state = oracles.advanced(small_field, 3.7)
        x = state.grid.nodes()
        a = geom_m1_trapped.a(x)
        u, ut = state.w_grid() / a, state.wt_grid() / a
        rebuilt = evolve.wave_field(geom_m1_trapped, state.grid,
                                    [(1, 1, a * u, a * ut)])
        e1 = oracles.energy_norms(state, R=3.0)
        e2 = oracles.energy_norms(rebuilt, R=3.0)
        assert e2["E"] == pytest.approx(e1["E"], rel=1e-12)
        assert e2["E_R"] == pytest.approx(e1["E_R"], rel=1e-12)


def grid_dbk_norm(state, k):
    """Reference graph norm |data| + |B^k data| on grid values: B(w, dt w) =
    (i dt w, -i P w) applied k times to the nodal data, each energy norm
    from the operator form."""
    op, h = state.prop.op, state.grid.h

    def norm(w, wt):
        return math.sqrt(oracles.quad_form(op, w) + h * float(np.sum(np.abs(wt) ** 2)))

    w, wt = state.w_grid().astype(complex), state.wt_grid().astype(complex)
    base = norm(w, wt)
    for _ in range(k):
        w, wt = 1j * wt, -1j * op.apply(w)
    return base + norm(w, wt)


class TestDbk:
    def test_identity_power_doubles_norm(self, small_field):
        base = oracles.energy_norms(small_field, R=3.0)["H_x0_norm"]
        assert dbk_norm(small_field, 0) == (pytest.approx(2 * base, rel=1e-12), True)

    def test_matches_grid_oracle(self, oscillating_field, geom_m1_trapped):
        qm = build_quasimode(geom_m1_trapped, 14, grid_interval=Grid(-1.0, 0.0, 160))
        qm_field = evolve.data_field(geom_m1_trapped, qm, qm.grid.extended(8.0))
        for fld in (oscillating_field, qm_field):
            for k in range(4):
                assert dbk_norm(fld, k) == (pytest.approx(grid_dbk_norm(fld, k), rel=1e-12), True)

    @settings(max_examples=30)
    @given(n=st.integers(5, 60), x0=st.sampled_from([-2.0, -1.0, 0.5, 1.0]),
           span=st.floats(1.0, 10.0), l=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_property_random_grids_and_data(self, n, x0, span, l, seed):
        geom = WarpGeometry.of(1, x0)
        grid = Grid(x0, x0 + span, n)
        rng = np.random.default_rng(seed)
        w0, w1 = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        fld = evolve.wave_field(geom, grid, [(l, 1, w0, w1)])
        # rough data may exceed the resolved smoothness; the norm holds either way
        for k in range(4):
            assert dbk_norm(fld, k)[0] == pytest.approx(grid_dbk_norm(fld, k), rel=1e-12)
        base = oracles.energy_norms(fld, R=grid.x_right)["H_x0_norm"]
        assert dbk_norm(fld, 0) == (pytest.approx(2 * base, rel=1e-12), True)

    def test_eigen_data_scaling(self, geom_m1_trapped):
        grid = Grid(-1.0, 6.0, 250)
        prop = evolve.get_propagator(geom_m1_trapped, 0, grid)
        k = 5
        tau = math.sqrt(prop.evals[k])
        v = prop.evecs[:, k].astype(complex)
        fld = evolve.ModeState.from_grid_data(prop, v, -1j * tau * v)
        base = oracles.energy_norms(fld, R=3.0)["H_x0_norm"]
        for kk in (1, 2, 3):
            assert dbk_norm(fld, kk) == (pytest.approx((1 + tau**kk) * base, rel=1e-9), True)

    def test_rough_data_amplification_flag(self, geom_m1_trapped):
        # grid-scale data: the first generator power already grows the norm
        # past half the square root of the spectral radius, and the verdict
        # stays with every higher power; the norm itself is still returned
        grid = Grid(-1.0, 6.0, 250)
        rng = np.random.default_rng(9)
        w0 = rng.standard_normal(250).astype(complex)
        fld = evolve.wave_field(geom_m1_trapped, grid, [(0, 1, w0, np.zeros_like(w0))])
        assert dbk_norm(fld, 0)[1]
        for k in (1, 2):
            value, resolved = dbk_norm(fld, k)
            assert not resolved
            assert value == pytest.approx(grid_dbk_norm(fld, k), rel=1e-12)

