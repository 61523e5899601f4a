import math

import numpy as np
import oracles
import pytest
import sympy_oracle

from warptrap import evolve
from warptrap import multiplier as mul
from warptrap.geometry import WarpGeometry
from warptrap.spectral import Grid, fd_derivative

# measured bound of g(x) * a(x) on the delta family at delta = 0.5, frozen
# with headroom as a regression constant
G_TIMES_A_BOUND = 1.05


@pytest.fixture(scope="module")
def pair_m1(geom_m1_front):
    return mul.MultiplierPair(geom_m1_front, 0.5)


class TestCoefficients:
    def test_time_term_matches_closed_form_exactly(self, geom_m1_front, pair_m1):
        x = np.geomspace(1e-3, 1e3, 400)
        d = pair_m1.derivatives(x)
        c = pair_m1.coefficients(x, d)
        closed = 0.5 * x**3 / (1.0 + x**2) ** 3
        scale = np.abs(d["g"]) + np.abs(0.5 * d["df"]
                                        + geom_m1_front.da(x) / geom_m1_front.a(x) * d["f"])
        assert np.max(np.abs(c["tt"] - closed) / scale) < 1e-13

    def test_all_vanish_at_neck(self, pair_m1):
        x = np.array([0.0])
        c = pair_m1.coefficients(x, pair_m1.derivatives(x))
        for name in ("xx", "ang", "tt", "uu"):
            assert c[name][0] == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_routes_agree_and_margins_positive(self, m):
        geom = WarpGeometry.of(m, 1.0)
        delta = 0.5 * mul.find_admissible_delta(geom)
        pair = mul.MultiplierPair(geom, delta)
        scan = mul.coefficient_scan(geom, pair)
        assert scan.route_agreement < 1e-12
        assert scan.all_positive
        assert scan.min_margins["tt"] == pytest.approx(delta, rel=1e-12)

    @pytest.mark.parametrize("m,expected", [(1, 1.0), (2, 0.8), (3, 4.0 / 7.0)])
    def test_admissible_damping_threshold(self, m, expected):
        # thresholds where one of the comparison margins first touches zero
        found = mul.find_admissible_delta(WarpGeometry.of(m, 1.0))
        assert found == pytest.approx(expected, rel=2e-3)
        # the values 50 bisection steps reached, before the exact minimum
        bisection = {1: 1.0000009999999997, 2: 0.7999999999999998, 3: 0.5714285714285683}
        assert found == pytest.approx(bisection[m], rel=1e-13)
        x = np.geomspace(*mul._SCAN_POINTS)
        weights = mul._comparison_weights(m, x)

        def least_margin(delta):
            closed = mul._closed_forms(m, x, delta)
            return min(np.min(closed[k] / weights[k]) for k in closed)

        assert least_margin(0.999 * found) > 0
        assert least_margin(1.001 * found) <= 0

    def test_multiplier_profile_bounds(self, geom_m1_front, pair_m1):
        x = np.geomspace(1e-3, 1e3, 500)
        d = pair_m1.derivatives(x)
        f = d["f"]
        assert np.all((f >= 0) & (f <= 1))
        assert np.max(d["g"] * geom_m1_front.a(x)) <= G_TIMES_A_BOUND

    def test_derivatives_evaluated_once_per_point_set(self, geom_m1_front, pair_m1,
                                                      corpus_m1, monkeypatch):
        # the scan and the identity hand their derivative dict to
        # coefficients rather than have it evaluated a second time
        calls = []
        derivatives = mul.MultiplierPair.derivatives

        def counted(self, x):
            calls.append(len(x))
            return derivatives(self, x)

        monkeypatch.setattr(mul.MultiplierPair, "derivatives", counted)
        mul.coefficient_scan(geom_m1_front, pair_m1)
        assert calls == [mul._SCAN_POINTS[2]]
        calls.clear()
        mul.verify_ibp(geom_m1_front, pair_m1, corpus_m1[0], T=2.0, x_max=12.0, nx=400)
        assert calls == [401]

    def test_family_validation(self, geom_m1_front):
        with pytest.raises(ValueError):
            mul.MultiplierPair(geom_m1_front, 0.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_closed_form_matches_symbolic(self, m):
        geom = WarpGeometry.of(m, 1.0)
        pair = mul.MultiplierPair(geom, 0.5 * mul.find_admissible_delta(geom))
        ref = sympy_oracle.delta_family(m, pair.delta)
        x = np.geomspace(1e-3, 1e3, 601)
        got = pair.derivatives(x)
        for name in sympy_oracle.FAMILY_NAMES:
            want = ref[name](x)
            assert np.max(np.abs(got[name] - want)) < 1e-13 * np.max(np.abs(want)), name


@pytest.fixture(scope="module")
def corpus_m1(geom_m1_front):
    return mul.make_corpus(geom_m1_front)


class TestManufacturedSolutions:
    def test_corpus_matches_symbolic(self, geom_m1_front, corpus_m1):
        ref = sympy_oracle.corpus(geom_m1_front)
        ts = np.linspace(0.0, 2.0, 81)[:, None]
        xs = np.linspace(1.0, 12.0, 551)[None, :]
        assert [sol.name for sol in corpus_m1] == list(ref)
        for sol in corpus_m1:
            for field in sympy_oracle.FIELD_NAMES:
                want = ref[sol.name][field](ts, xs)
                got = getattr(oracles, field)(sol, ts, xs)
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), \
                    (sol.name, field)

    def test_bump_derivatives_match_high_precision(self):
        # the bump's affine maps carry 15-digit coefficients, which costs the
        # corpus's bumps up to 2.2e-13 relative against exact coefficients
        import mpmath

        center, width = 5.95, 2.42
        bump = mul.bump_profile(center, width)
        xs = np.linspace(center - width, center + width, 301)[1:-1]

        def exact(x, order):
            fn = lambda y: mpmath.exp(-1 / (1 - ((y - center) / width) ** 2))
            with mpmath.workdps(40):
                return float(mpmath.diff(fn, mpmath.mpf(float(x)), order))

        for order in (0, 1, 2):
            want = np.array([exact(x, order) for x in xs])
            got = bump(xs, order)
            assert np.max(np.abs(got - want)) < 5e-13 * np.max(np.abs(want)), order

    def test_profiles_differentiate_consistently(self):
        # second-order central differences of each order reproduce the next
        h = 1e-4
        profiles = [
            (mul.time_profile([(1.0, -0.5, 2.0, 1.0), (0.3, 0.2, 5.0, 0.0)], 2.0),
             np.linspace(0.0, 2.0, 41)),
            (mul.bump_profile(5.0, 2.0), np.linspace(3.2, 6.8, 41)),
            (mul.boundary_ramp_profile(1.0, 1.3), np.linspace(1.0, 4.0, 41)),
        ]
        for prof, v in profiles:
            for order in (1, 2):
                fd = (prof(v + h, order - 1) - prof(v - h, order - 1)) / (2 * h)
                scale = np.max(np.abs(prof(v, order)))
                assert np.max(np.abs(fd - prof(v, order))) < 1e-6 * scale


def tensor_grid_ibp(geom, pair, sol, T, x_max, nx, nt):
    """Reference for ``verify_ibp``: every field and product evaluated on
    the (nt+1) x (nx+1) space-time grid, then 2-D trapezoid sums."""
    x0 = geom.params.x0
    xs = np.linspace(x0, x_max, nx + 1)
    ts = np.linspace(0.0, T, nt + 1)
    dt, dx = ts[1] - ts[0], xs[1] - xs[0]

    def trapz2(F):
        return float(np.trapezoid(np.trapezoid(F, dx=dx, axis=1), dx=dt))

    TT, XX = ts[:, None], xs[None, :]
    u, ut, ux, box = (f(sol, TT, XX) for f in (oracles.u, oracles.ut, oracles.ux, oracles.box))
    a2 = geom.a_sq(xs)[None, :]
    d = pair.derivatives(xs)
    f, g = d["f"][None, :], d["g"][None, :]
    c = {k: v[None, :] for k, v in pair.coefficients(xs, d).items()}
    mult = f * ux + g * u
    bdry_t = ut * mult * a2
    ux_wall = oracles.ux(sol, ts, np.full_like(ts, x0))
    terms = {
        "time_boundary": float(np.trapezoid(bdry_t[-1] - bdry_t[0], dx=dx)),
        "dx_sq": trapz2(c["xx"] * ux**2 * a2),
        "angular_sq": trapz2(c["ang"] * sol.sigma_sq * geom.inv_a_sq(xs)[None, :]
                             * u**2 * a2),
        "dt_sq": trapz2(c["tt"] * ut**2 * a2),
        "u_sq": trapz2(c["uu"] * u**2 * a2),
        "wall_flux": 0.5 * float(d["f"][0]) * float(geom.a_sq(np.array([x0]))[0])
                     * float(np.trapezoid(ux_wall**2, dx=dt)),
    }
    return trapz2(-box * mult * a2), sum(terms.values()), terms


class TestIdentity:
    def test_zero_solution(self, geom_m1_front, pair_m1):
        sol = mul.ManufacturedSolution("zero", geom_m1_front, 1, mul.time_profile([]),
                                       mul.bump_profile(5.0, 1.0))
        rep = mul.verify_ibp(geom_m1_front, pair_m1, sol, T=1.0, x_max=12.0,
                             nx=100, nt=50)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.gap == 0.0

    def test_gap_converges_second_order(self, geom_m1_front, pair_m1, corpus_m1):
        _, order = mul.ibp_richardson(geom_m1_front, pair_m1, corpus_m1[0])
        assert 1.8 <= order <= 2.2

    def test_interior_solution_has_no_wall_flux(self, geom_m1_front, pair_m1, corpus_m1):
        rep = mul.verify_ibp(geom_m1_front, pair_m1, corpus_m1[0], T=2.0, x_max=12.0,
                             nx=200, nt=100)
        assert rep.terms["wall_flux"] == 0.0

    def test_wall_attached_solution_has_positive_flux(self, geom_m1_front, pair_m1,
                                                      corpus_m1):
        wall_sol = corpus_m1[-1]
        rep = mul.verify_ibp(geom_m1_front, pair_m1, wall_sol, T=2.0, x_max=12.0,
                             nx=300, nt=150)
        assert rep.terms["wall_flux"] > 0

    def test_violated_wall_condition_rejected(self, geom_m1_front, pair_m1):
        sol = mul.ManufacturedSolution("bad-trace", geom_m1_front, 0,
                                       mul.time_profile([(1.0, 0.0, 1.0, 0.0)]),
                                       mul.bump_profile(1.2, 1.0))
        with pytest.raises(ValueError, match="trace"):
            mul.verify_ibp(geom_m1_front, pair_m1, sol, T=1.0, x_max=12.0,
                           nx=100, nt=50)

    def test_factored_quadrature_matches_tensor_grid(self, geom_m1_front, pair_m1,
                                                     corpus_m1):
        for sol in corpus_m1:
            rep = mul.verify_ibp(geom_m1_front, pair_m1, sol, T=2.0, x_max=12.0,
                                 nx=200, nt=100)
            lhs, rhs, terms = tensor_grid_ibp(geom_m1_front, pair_m1, sol, 2.0, 12.0,
                                              200, 100)
            assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0), sol.name
            assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0), sol.name
            assert rep.terms.keys() == terms.keys()
            for name, want in terms.items():
                assert rep.terms[name] == pytest.approx(want, rel=1e-12, abs=0.0), \
                    (sol.name, name)

    def test_richardson_pairs_hold_no_space_time_grid(self, geom_m1_front, pair_m1,
                                                      corpus_m1):
        # one (401 x 801) space-time array is 2.5 MiB; the factored
        # quadrature holds only 1-D profiles
        import tracemalloc

        tracemalloc.start()
        try:
            for sol in corpus_m1:
                mul.ibp_richardson(geom_m1_front, pair_m1, sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_flux_form_reassembles_boundary_terms(self, geom_m1_front, pair_m1,
                                                  corpus_m1):
        sol = corpus_m1[-1]
        T, x_max = 2.0, 12.0
        I1, I2 = oracles.flux_integrands(geom_m1_front, pair_m1, sol)
        rep = mul.verify_ibp(geom_m1_front, pair_m1, sol, T=T, x_max=x_max,
                             nx=600, nt=300)
        xs = np.linspace(1.0, x_max, 601)
        ts = np.linspace(0.0, T, 301)
        # time flux integrates to minus the identity's time-boundary term
        time_flux = (np.trapezoid(I1(np.full_like(xs, T), xs), xs)
                     - np.trapezoid(I1(np.zeros_like(xs), xs), xs))
        assert time_flux == pytest.approx(-rep.terms["time_boundary"], rel=1e-9)
        # radial flux at the wall integrates to the wall term
        wall_flux = np.trapezoid(I2(ts, np.full_like(ts, 1.0)), ts)
        assert wall_flux == pytest.approx(rep.terms["wall_flux"], rel=1e-9)


class TestHardy:
    def test_tent_function(self, geom_m1_front):
        grid = Grid(1.0, 11.0, 1500)
        x = grid.nodes()
        u = np.where(x <= 2, x - 1, np.where(x <= 3, 3 - x, 0.0))
        ratio = mul.hardy_check(geom_m1_front, grid, u)
        assert 0 < ratio < 4.0

    def test_zero_function_degenerate(self, geom_m1_front):
        grid = Grid(1.0, 11.0, 200)
        assert mul.hardy_check(geom_m1_front, grid, np.zeros(200)) == 0.0

    def test_scaling_sweep_bounded(self, geom_m1_front):
        grid = Grid(1.0, 11.0, 3000)
        x = grid.nodes()
        ratios = []
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            u = np.where(x <= 1 + 1 / lam, lam * (x - 1),
                         np.where(x <= 1 + 2 / lam, lam * (1 + 2 / lam - x), 0.0))
            ratios.append(mul.hardy_check(geom_m1_front, grid, u))
        # the proof's integration-by-parts argument caps the ratio at 4
        assert max(ratios) < 4.0
        assert max(ratios) / min(ratios) < 25.0

    def test_corpus_under_frozen_bound(self, geom_m1_front):
        from warptrap.cli import HARDY_FROZEN_BOUND, ExperimentConfig

        grid = Grid(1.0, 11.0, 2000)
        # the seed at which the bound was measured
        worst = max(mul.hardy_random_corpus(geom_m1_front, grid, ExperimentConfig().seed))
        assert worst <= HARDY_FROZEN_BOUND

    def test_corpus_matches_termwise_sine_sums(self, geom_m1_front):
        # reference: each draw summed one masked sine term at a time, with
        # the same rng draw order
        grid = Grid(1.0, 11.0, 2000)
        x = grid.nodes()
        for seed in (0, 6, 20260809):
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(64):
                L = 10.0 * rng.uniform(0.25, 0.9)
                coeff = rng.standard_normal(12) / np.arange(1, 13)
                s = (x - 1.0) / L
                u = np.zeros_like(x)
                inside = s <= 1.0
                for k in range(1, 13):
                    u[inside] += coeff[k - 1] * np.sin(k * np.pi * s[inside])
                want.append(mul.hardy_check(geom_m1_front, grid, u))
            got = mul.hardy_random_corpus(geom_m1_front, grid, seed=seed)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_requires_positive_side(self, geom_m1_trapped):
        grid = Grid(-1.0, 9.0, 100)
        with pytest.raises(ValueError):
            mul.hardy_check(geom_m1_trapped, grid, np.zeros(100))


class TestAudit:
    def test_zero_run_degenerate(self, geom_m1_front):
        grid = Grid(1.0, 12.0, 300)
        z = np.zeros(300, dtype=complex)
        fld = evolve.wave_field(geom_m1_front, grid, [(0, 1, z, z)])
        res = evolve.le_bound_audit(fld, 4.0, 0.5)
        assert res.ratio_lelocal == 0.0 and res.ratio_lepositive == 0.0

    def test_rejects_trapped_side(self, geom_m1_trapped):
        z = np.zeros(100, dtype=complex)
        fld = evolve.wave_field(geom_m1_trapped, Grid(-1.0, 9.0, 100), [(0, 1, z, z)])
        with pytest.raises(ValueError):
            evolve.le_bound_audit(fld, 4.0, 0.5)

    @staticmethod
    def front_field(geom):
        grid = Grid(1.0, 24.0, 900)
        x = grid.nodes()
        s = (x - 2.5)
        w0 = np.where(np.abs(s) < 1, np.exp(-1.0 / np.maximum(1e-300, 1 - s**2)), 0.0)
        w0 = w0.astype(complex)
        w1 = -fd_derivative(grid, w0, 1)
        return evolve.wave_field(geom, grid, [(1, 1, w0, w1)])

    def test_homogeneous_run_ratios_finite(self, geom_m1_front):
        res = evolve.le_bound_audit(self.front_field(geom_m1_front), 15.0, 0.25)
        assert 0 < res.ratio_lelocal < 50
        assert 1 <= res.ratio_lepositive < 50

    def test_one_reconstruction_per_block(self, geom_m1_front, monkeypatch):
        # the local side and LE1 are reduced from the same reconstruction of
        # each block of samples
        fld = self.front_field(geom_m1_front)
        calls = []
        raw = evolve._raw_product

        def counted(M, X):
            calls.append(X.shape)
            return raw(M, X)

        monkeypatch.setattr(evolve, "_raw_product", counted)
        evolve.le_bound_audit(fld, 40.0, 0.25)
        _, times = evolve._sample_times(40.0, 0.25, fld.grid.h)
        assert len(calls) == math.ceil(times.size / evolve.TILE)

    def test_le1_matches_space_time_norms(self, geom_m1_front):
        fld = self.front_field(geom_m1_front)
        res = evolve.le_bound_audit(fld, 40.0, 0.25)
        assert res.le1 == evolve.space_time_norms(fld, 40.0, 0.25)[0].le1

    def test_tiled_local_side_matches_per_state_sum(self, geom_m1_front):
        # reference: the weighted density summed state by state over a
        # propagated history, the audit's form before it was tiled
        fld = self.front_field(geom_m1_front)
        grid, geom = fld.grid, geom_m1_front
        x, h, m = grid.nodes(), grid.h, geom.params.m
        ratio_a, inv_a2 = geom.da(x) / geom.a(x), geom.inv_a_sq(x)
        rows = []
        for state in oracles.propagate(fld, 0.25, 60):
            w, wt = state.w_grid(), state.wt_grid()
            dw = fd_derivative(grid, w, 1)
            dens = (x ** (-2.0 * m - 1.0) * (np.abs(dw - ratio_a * w) ** 2 + np.abs(wt) ** 2)
                    + x ** (-1.0) * inv_a2 * state.sigma_sq * inv_a2 * np.abs(w) ** 2
                    + x ** (-2.0 * m - 3.0) * np.abs(w) ** 2)
            rows.append(h * float(np.sum(dens)))
        want = float(np.trapezoid(rows, 0.25 * np.arange(61)))
        res = evolve.le_bound_audit(fld, 15.0, 0.25)
        assert res.lhs_lelocal == pytest.approx(want, rel=1e-12)
