import math

import numpy as np
import oracles
import pytest
import sympy_oracle

from warptrap.geometry import WarpGeometry, WarpParams


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff5(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12.0 * h)


class TestWarpEval:
    def test_value_at_origin(self):
        assert WarpGeometry.of(1, -1.0).a(0.0) == pytest.approx(1.0, abs=0.0)

    def test_slope_at_origin_vanishes(self):
        assert WarpGeometry.of(1, -1.0).da(0.0) == 0.0

    def test_value_at_one(self):
        assert WarpGeometry.of(1, -1.0).a(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_derivatives_match_five_point_differences(self, m):
        geom = WarpGeometry.of(m, 1.0)
        xs = np.linspace(-5.0, 5.0, 81)
        h = 0.01
        fd1 = central_diff5(geom.a, xs, h)
        fd2 = central_diff5(geom.da, xs, h)
        assert np.max(np.abs(geom.da(xs) - fd1)) <= 1e-6
        # v0 = a''/a, so with a >= 1 its error is at most that of a'' itself
        assert np.max(np.abs(geom.v0(xs) - fd2 / geom.a(xs))) <= 1e-6

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_symmetry(self, m):
        geom = WarpGeometry.of(m, 1.0)
        xs = np.linspace(0.01, 10.0, 57)
        np.testing.assert_allclose(geom.a(-xs), geom.a(xs), rtol=1e-15)
        np.testing.assert_allclose(geom.da(-xs), -geom.da(xs), rtol=1e-15)

    def test_slope_negative_left_of_neck(self):
        geom = WarpGeometry.of(1, -1.0)
        xs = -np.geomspace(1e-3, 10.0, 200)
        assert np.all(geom.da(xs) < 0)

    def test_warp_exceeds_one_away_from_neck(self):
        geom = WarpGeometry.of(2, -1.0)
        xs = np.linspace(-3, 3, 101)
        a = geom.a(xs)
        assert np.all(a >= 1.0)
        assert a[np.argmin(np.abs(xs))] == 1.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WarpParams(0, 1.0)
        with pytest.raises(ValueError):
            WarpParams(1, 0.0)


class TestPotential:
    def test_zero_mode_at_origin(self, geom_m1_trapped):
        # V_0(0) = a''(0)/a(0); cross-check the closed form against differences
        fd = central_diff(geom_m1_trapped.da, 0.0, 1e-5)
        assert geom_m1_trapped.potential(0, 0.0) == pytest.approx(fd, abs=1e-6)
        assert geom_m1_trapped.potential(0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_first_mode_at_origin(self, geom_m1_trapped):
        assert geom_m1_trapped.potential(1, 0.0) == pytest.approx(3.0, rel=1e-12)

    def test_decay_at_infinity(self, geom_m1_trapped):
        assert abs(geom_m1_trapped.potential(0, 100.0)) < 1e-3

    def test_rejects_negative_degree(self, geom_m1_trapped):
        with pytest.raises(ValueError):
            geom_m1_trapped.potential(-1, 0.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("l", [0, 7])
    def test_potential_slope_closed_form(self, m, l):
        # five-point slope of the closed-form V_l against sympy's derivative
        # of its definition l(l+1) a^-2 + a''/a
        geom = WarpGeometry.of(m, -1.0)
        xs = np.linspace(-3.0, 3.0, 41)
        fd = central_diff5(lambda x: geom.potential(l, x), xs, 5e-3)
        slope = sympy_oracle.potential_slope(m, l)(xs)
        assert np.max(np.abs(slope - fd)) < 1e-5 * max(1.0, l * (l + 1))


class TestMonotonicityWindow:
    """Hypotheses used by the frequency bracket: V_l strictly increasing on
    [x0, x0/2] and V_l(x0/2) < V_l(0) hold for all large l."""

    @staticmethod
    def hypotheses_hold(geom, l):
        x0 = geom.params.x0
        return (oracles.potential_is_monotone(geom, l)
                and geom.potential(l, x0 / 2) < geom.potential(l, 0.0))

    def test_threshold_exists_m1(self, geom_m1_trapped):
        assert all(self.hypotheses_hold(geom_m1_trapped, l) for l in range(10, 81))

    def test_threshold_exists_m2(self):
        geom = WarpGeometry.of(2, -1.0)
        assert all(self.hypotheses_hold(geom, l) for l in range(10, 81))

    def test_window_requires_trapped_side(self, geom_m1_front):
        with pytest.raises(ValueError):
            oracles.potential_is_monotone(geom_m1_front, 5)
