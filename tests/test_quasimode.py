import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import oracles
import pytest

from warptrap.geometry import WarpGeometry
from warptrap.quasimode import (
    EIGEN_H_PER_SIGMA,
    CutoffProfile,
    FitError,
    build_quasimode,
    default_cutoff,
    fit_exponential_rate,
    interval_grid,
    mode_operator,
    quasimode_csv_rows,
    QUASIMODE_CSV_COLUMNS,
)
from warptrap.smoothstep import smooth_step
from warptrap.spectral import lowest_pair, quadrature_l2


class TestCutoff:
    def test_plateau_and_support_values(self):
        cut = default_cutoff(-1.0)
        assert cut.chi(-1.0) == 1.0
        assert cut.chi(-0.4) == 1.0
        assert cut.chi(-0.1) == 0.0
        assert cut.chi(-1e-9) == 0.0

    def test_monotone_transition(self):
        cut = default_cutoff(-2.0)
        xs = np.linspace(-0.8, -0.2, 400)
        vals = cut.chi(xs)
        assert np.all(np.diff(vals) <= 1e-14)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_derivative_support_inside_transition(self):
        cut = default_cutoff(-1.0)
        xs = np.linspace(-1.0, -1e-6, 2001)
        # chi(x) = step(s) with s = (support_end - x) / width
        d = smooth_step((cut.support_end - xs) / cut.width, 1)
        nz = xs[np.abs(d) > 1e-12 * np.abs(d).max()]
        assert nz.min() > -0.4 and nz.max() < -0.1
        # derivative support sits where the cutoff is measurably below one
        assert np.all(cut.chi(nz) < 1.0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_consistent_with_differences(self, order):
        s = np.linspace(0.13, 0.87, 9)
        # Richardson-extrapolated central difference of the previous order
        h = 2e-4
        fd_h = (smooth_step(s + h, order - 1) - smooth_step(s - h, order - 1)) / (2 * h)
        fd_h2 = (smooth_step(s + h / 2, order - 1) - smooth_step(s - h / 2, order - 1)) / h
        fd = (4.0 * fd_h2 - fd_h) / 3.0
        scale = np.abs(smooth_step(s, order)).max()
        assert np.max(np.abs(fd - smooth_step(s, order))) < 1e-5 * scale

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_step_matches_symbolic_derivatives(self, order):
        import sympy as sp

        from sympy_oracle import step_expr

        s = sp.Symbol("s", positive=True)
        ref = sp.lambdify(s, sp.diff(step_expr(s), s, order), modules="math")
        xs = np.concatenate([np.linspace(0.002, 0.998, 499), [1e-3, 0.5, 1 - 1e-3]])
        want = np.array([ref(x) for x in xs])
        scale = np.abs(want).max()
        assert np.max(np.abs(smooth_step(xs, order) - want)) < 1e-13 * scale

    def test_order_above_two_refused(self):
        # no caller takes a third derivative of the step
        with pytest.raises(ValueError, match="derivative order"):
            smooth_step(np.linspace(0.1, 0.9, 5), 3)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            default_cutoff(1.0)
        with pytest.raises(ValueError):
            CutoffProfile(-1.0, -0.45, -0.5)  # support before plateau
        with pytest.raises(ValueError):
            CutoffProfile(-1.0, -0.6, -0.1)  # plateau misses [x0, x0/2]


class TestBracket:
    def test_bracket_holds_at_l40(self, geom_m1_trapped):
        res = oracles.bracket_check(geom_m1_trapped, 40)
        assert not res.below_threshold
        assert res.in_bracket
        assert res.V_at_x0 <= res.tau_sq <= res.V_at_half

    def test_square_well_constant(self, geom_m1_trapped):
        res = oracles.bracket_check(geom_m1_trapped, 40)
        direct = geom_m1_trapped.potential(40, -0.75)
        assert res.V_at_threequarters_bound - direct == pytest.approx(16 * math.pi**2,
                                                                      rel=1e-12)
        assert res.tau_sq <= res.V_at_threequarters_bound

    def test_low_degree_flagged_not_raised(self, geom_m1_trapped):
        res = oracles.bracket_check(geom_m1_trapped, 0)
        assert res.below_threshold
        assert res.V_at_threequarters_bound > res.V_at_half

    def test_requires_trapped_side(self, geom_m1_front):
        with pytest.raises(ValueError):
            oracles.bracket_check(geom_m1_front, 10)

    def test_two_resolutions_agree(self, geom_m1_trapped):
        base = interval_grid(geom_m1_trapped, 35, EIGEN_H_PER_SIGMA)
        r1 = oracles.bracket_check(geom_m1_trapped, 35, n=base.n_interior)
        r2 = oracles.bracket_check(geom_m1_trapped, 35, n=2 * base.n_interior + 1)
        assert r1.in_bracket and r2.in_bracket
        assert r1.tau_sq == pytest.approx(r2.tau_sq, rel=1e-3)


def eigen_quasimode(geom, l):
    """The degree-l quasimode on the interval grid of the eigenproblem's
    spacing rule, as the quasimode command builds it."""
    return build_quasimode(geom, l, interval_grid(geom, l, EIGEN_H_PER_SIGMA))


@pytest.fixture(scope="module")
def qm_family(geom_m1_trapped):
    qms = [eigen_quasimode(geom_m1_trapped, l) for l in range(20, 61, 10)]
    assert all(qm.bracket.in_bracket for qm in qms)
    return qms


class TestBuildQuasimode:
    def test_normalization(self, qm_family):
        for qm in qm_family:
            assert quadrature_l2(qm.grid, qm.u) == pytest.approx(1.0, rel=1e-12)

    def test_vanishes_past_cutoff_support(self, qm_family):
        qm = qm_family[0]
        x = qm.grid.nodes()
        assert np.all(qm.u[x >= qm.cutoff.support_end] == 0.0)

    def test_zero_extension(self, geom_m1_trapped):
        qm = eigen_quasimode(geom_m1_trapped, 25)
        ext = qm.grid.extended(8.0)
        u_ext = qm.extend_to(ext)
        x = ext.nodes()
        assert np.all(u_ext[x >= qm.cutoff.support_end] == 0.0)
        assert quadrature_l2(ext, u_ext) == pytest.approx(1.0, rel=1e-12)

    def test_quasimode_is_frozen(self, qm_family):
        qm = qm_family[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            qm.u = np.zeros(3)
        # its array and residual mapping refuse in-place writes too
        with pytest.raises(ValueError, match="read-only"):
            qm.u[0] = 0.0
        with pytest.raises(TypeError):
            qm.residual_hk[0] = -1.0

    def test_residual_decreases_with_degree(self, geom_m1_trapped):
        r30 = eigen_quasimode(geom_m1_trapped, 30).residual_hk[0]
        r60 = eigen_quasimode(geom_m1_trapped, 60).residual_hk[0]
        assert r60 < r30

    def test_residual_supported_in_transition(self, qm_family):
        # the eigen-equation defect lives where the cutoff slope lives,
        # up to eigensolver noise
        qm = qm_family[2]
        op, (lam, psi) = _eigenpair(qm)
        op_resid = quadrature_l2(qm.grid, op.apply(psi) - lam * psi)
        x = qm.grid.nodes()
        r = op.apply(qm.u) - qm.tau_sq * qm.u
        outside = (x < qm.cutoff.plateau_end) | (x > qm.cutoff.support_end)
        assert np.abs(r[outside]).max() <= max(1e-8, 100 * op_resid)

    def test_norm_floor_from_tail_ratio(self, qm_family):
        for qm in qm_family:
            _, psi = _eigenpair(qm)[1]
            psi_norm = quadrature_l2(qm.grid, psi)
            chi_psi_norm = quadrature_l2(qm.grid, qm.cutoff.chi(qm.grid.nodes()) * psi)
            assert chi_psi_norm >= (1.0 - qm.agmon_ratio) * psi_norm - 1e-12

    def test_tail_ratio_monotone(self, qm_family):
        ratios = [qm.agmon_ratio for qm in qm_family]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= 1.05 * a

    def test_tau_sq_richardson_ratio(self, geom_m1_trapped):
        base = interval_grid(geom_m1_trapped, 30, EIGEN_H_PER_SIGMA)
        n = base.n_interior
        taus = [oracles.bracket_check(geom_m1_trapped, 30, n=nn).tau_sq
                for nn in (n, 2 * n + 1, 4 * n + 3)]
        ratio = (taus[0] - taus[1]) / (taus[1] - taus[2])
        assert 3.5 <= ratio <= 4.5

    def test_one_interval_solve_per_build(self, geom_m1_trapped, monkeypatch):
        import warptrap.quasimode as qmod

        calls = []
        solve = qmod.lowest_pair

        def counted(op):
            calls.append(op.n)
            return solve(op)

        monkeypatch.setattr(qmod, "lowest_pair", counted)
        grid = interval_grid(geom_m1_trapped, 30, EIGEN_H_PER_SIGMA)
        qm = build_quasimode(geom_m1_trapped, 30, grid_interval=grid)
        assert calls == [grid.n_interior]
        # the bracket matches a separate bracket check on the same grid
        res = oracles.bracket_check(geom_m1_trapped, 30, n=grid.n_interior)
        assert res.tau_sq == qm.tau_sq
        assert (res.V_at_x0, res.V_at_half, res.in_bracket) == dataclasses.astuple(qm.bracket)

    def test_out_of_bracket_degree_rejected(self, geom_m1_trapped):
        # the state is built and the verdict returned; the CLI refuses the
        # degree (test_cli's test_refused_before_output_dir)
        qm = eigen_quasimode(geom_m1_trapped, 10)
        assert not qm.bracket.in_bracket

    def test_csv_rows(self, qm_family):
        rows = quasimode_csv_rows(qm_family)
        assert len(rows) == len(qm_family)
        assert len(rows[0]) == len(QUASIMODE_CSV_COLUMNS)


def _eigenpair(qm):
    """The mode operator of a quasimode on the m = 1, x0 = -1 warp, and its
    lowest eigenpair, solved again."""
    op = mode_operator(WarpGeometry.of(1, -1.0), qm.l, qm.grid)
    return op, lowest_pair(op)


def _fake(sigma, value):
    return SimpleNamespace(sigma=sigma, tau=sigma,
                           residual_hk={0: value, 1: value, 2: value},
                           agmon_ratio=value)


class TestDecayFit:
    def test_exact_affine_input(self):
        fakes = [_fake(s, math.exp(3.0 - 0.7 * s)) for s in (5, 10, 15, 20, 25, 30)]
        fit = fit_exponential_rate(fakes, "residual_h0")
        assert fit.slope == pytest.approx(-0.7, rel=1e-12)
        assert fit.intercept == pytest.approx(3.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_floor_exclusion(self):
        fakes = [_fake(s, math.exp(-0.8 * s)) for s in (5, 10, 15, 20, 25, 30)]
        fakes.append(_fake(50, 1e-16))
        fit = fit_exponential_rate(fakes, "residual_h0")
        assert fit.n_excluded == 1
        assert fit.slope == pytest.approx(-0.8, rel=1e-10)

    def test_all_floored_is_error(self):
        fakes = [_fake(s, 1e-16) for s in (5, 10, 15, 20, 25)]
        with pytest.raises(FitError):
            fit_exponential_rate(fakes, "residual_h0")

    def test_too_few_points_is_error(self):
        fakes = [_fake(s, math.exp(-s)) for s in (5, 10, 15)]
        with pytest.raises(FitError):
            fit_exponential_rate(fakes, "residual_h0")

    def test_growing_quantity_rejected(self):
        fakes = [_fake(s, math.exp(0.25 * s)) for s in (5, 10, 15, 20, 25)]
        with pytest.raises(FitError):
            fit_exponential_rate(fakes, "agmon")

    def test_family_slopes_negative(self, qm_family):
        for quantity in ("residual_h0", "residual_h1", "residual_h2", "agmon"):
            for abscissa in ("sigma", "tau"):
                fit = fit_exponential_rate(qm_family, quantity, abscissa)
                assert fit.slope < 0
