"""Acceptance suite: one test per numbered acceptance item, each printing a
pass/fail line with the measured values (run with -s to stream them).

Heavy artifacts (quasimode families, eigendecompositions, long evolutions)
are built once in module fixtures and shared across the criteria that need
them.
"""

import math
import time

import numpy as np
import oracles
import pytest

from warptrap import evolve
from warptrap import multiplier as mul
from warptrap.cli import HARDY_FROZEN_BOUND, ExperimentConfig
from warptrap.geometry import WarpGeometry
from warptrap.quasimode import (
    EIGEN_H_PER_SIGMA,
    build_quasimode,
    fit_exponential_rate,
    interval_grid,
)
from warptrap.spectral import (
    Grid,
    build_operator,
    eigen_full,
    lowest_pair,
    fd_derivative,
)

X_MAX_TRAPPED = 24.0
FIT_DEGREES = range(20, 71, 10)
REPORT_DEGREES = (20, 40, 60)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")


# -- shared artifacts ----------------------------------------------------------


@pytest.fixture(scope="module")
def geom():
    return WarpGeometry.of(1, -1.0)


@pytest.fixture(scope="module")
def fit_families(geom):
    base, double = [], []
    for l in FIT_DEGREES:
        g = interval_grid(geom, l, EIGEN_H_PER_SIGMA)
        base.append(build_quasimode(geom, l, grid_interval=g))
        g2 = Grid(geom.params.x0, 0.0, 2 * g.n_interior + 1)
        double.append(build_quasimode(geom, l, grid_interval=g2))
    assert all(qm.bracket.in_bracket for qm in base + double)
    return base, double


@pytest.fixture(scope="module")
def confinement_runs(geom):
    t0 = time.perf_counter()
    out = {}
    for l in REPORT_DEGREES:
        sigma = math.sqrt(l * (l + 1))
        grid_i = Grid.for_sigma(-1.0, 0.0, sigma, evolve.EVOLUTION_H_PER_SIGMA)
        qm = build_quasimode(geom, l, grid_interval=grid_i)
        assert qm.bracket.in_bracket, l
        T = 1000.0 if l == 40 else 500.0
        rep = evolve.run_confinement(geom, qm, qm.grid.extended(X_MAX_TRAPPED), T_max=T,
                                     R=1.0, dt=1.0, le1=True, dt_le=2.0)
        dbk1, resolved = evolve.dbk_norm(rep.state, 1)
        assert resolved, l
        rep.state = None  # no criterion reads it, and it keeps an n x n propagator alive
        out[l] = {"qm": qm, "rep": rep, "dbk1": dbk1}
    out["elapsed"] = time.perf_counter() - t0
    return out


# -- criteria ------------------------------------------------------------------


def test_criterion_01_eigensolver_oracle():
    t0 = time.perf_counter()
    g = Grid(0.0, 1.0, 99)
    vals, _ = eigen_full(build_operator(g, lambda x: 0.0 * x))
    rels = [abs(lam - (2 / g.h**2) * (1 - math.cos(k * math.pi * g.h)))
            / ((2 / g.h**2) * (1 - math.cos(k * math.pi * g.h)))
            for k, lam in enumerate(vals[:3], start=1)]
    g2 = Grid(0.0, 1.0, 999)
    lam1, _ = lowest_pair(build_operator(g2, lambda x: 0.0 * x))
    pi_rel = abs(lam1 - math.pi**2) / math.pi**2
    elapsed = time.perf_counter() - t0
    ok = max(rels) <= 1e-10 and pi_rel <= 1e-4 and elapsed < 1.0
    report("acceptance-01 eigensolver", ok,
           f"max rel err {max(rels):.2e}, continuum rel {pi_rel:.2e}, {elapsed:.2f}s")
    assert max(rels) <= 1e-10
    assert pi_rel <= 1e-4
    assert elapsed < 1.0


def test_criterion_02_frequency_bracket_sweep():
    t0 = time.perf_counter()
    tested = {1: 0, 2: 0}
    skipped = {1: 0, 2: 0}
    for m in (1, 2):
        gm = WarpGeometry.of(m, -1.0)
        for l in range(10, 61):
            n = interval_grid(gm, l, EIGEN_H_PER_SIGMA).n_interior
            for nn in (n, 2 * n + 1):
                res = oracles.bracket_check(gm, l, n=nn)
                if res.below_threshold:
                    skipped[m] += 1
                    continue
                tested[m] += 1
                assert res.in_bracket, (m, l, nn, res)
                assert res.tau_sq <= res.V_at_threequarters_bound, (m, l, nn)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0 and tested[1] >= 40 and tested[2] >= 30
    report("acceptance-02 frequency bracket", ok,
           f"tested m1/m2 = {tested[1]}/{tested[2]} cases "
           f"(below threshold: {skipped[1]}/{skipped[2]}), {elapsed:.1f}s")
    assert tested[1] >= 40 and tested[2] >= 30
    assert elapsed < 30.0


def test_criterion_03_residual_decay_fits(fit_families):
    t0 = time.perf_counter()
    base, double = fit_families
    f_base = fit_exponential_rate(base, "residual_h0")
    f_double = fit_exponential_rate(double, "residual_h0")
    drift = abs(f_double.slope / f_base.slope - 1.0)
    extra = {q: fit_exponential_rate(base, q).slope for q in ("residual_h1",
                                                              "residual_h2")}
    elapsed = time.perf_counter() - t0
    ok = (f_base.slope < 0 and f_base.r_squared > 0.98 and drift <= 0.10
          and all(s < 0 for s in extra.values()))
    report("acceptance-03 residual decay", ok,
           f"slope {f_base.slope:.4f} (r2 {f_base.r_squared:.4f}), "
           f"refined-grid drift {100 * drift:.2f}%, "
           f"H1/H2 slopes {extra['residual_h1']:.3f}/{extra['residual_h2']:.3f}")
    assert f_base.slope < 0 and f_base.r_squared > 0.98
    assert drift <= 0.10
    assert all(s < 0 for s in extra.values())
    assert elapsed < 120.0


def test_criterion_04_tail_ratio_fit(fit_families):
    base, _ = fit_families
    fit = fit_exponential_rate(base, "agmon")
    ok = fit.slope < 0 and fit.r_squared > 0.95
    report("acceptance-04 tail localization", ok,
           f"slope {fit.slope:.4f}, r2 {fit.r_squared:.4f}")
    assert fit.slope < 0
    assert fit.r_squared > 0.95


def test_criterion_05_conservation_and_reversal(geom):
    grid = Grid(-1.0, 14.0, 700)
    x = grid.nodes()
    s = (x - 0.2) / 0.6
    w0 = np.where(np.abs(s) < 1, np.exp(-1.0 / np.maximum(1e-300, 1 - s**2)), 0.0)
    fld = evolve.wave_field(geom, grid, [(1, 1, w0.astype(complex),
                                          (-0.4j * w0).astype(complex))])
    E0 = oracles.energy_norms(fld, R=2.0)["E"]
    drift = 0.0
    for t in np.linspace(0.0, 1000.0, 26):
        E = oracles.energy_norms(oracles.advanced(fld, float(t)), R=2.0)["E"]
        drift = max(drift, abs(E - E0) / E0)
    T = 1000.0
    back = oracles.advanced(oracles.advanced(fld, T), -T)
    rev = np.linalg.norm(back.w_grid() - fld.w_grid()) / np.linalg.norm(fld.w_grid())
    ok = drift <= 1e-9 and rev <= 1e-9
    report("acceptance-05 conservation", ok,
           f"energy drift {drift:.2e}, reversal error {rev:.2e} over [0, 1000]")
    assert drift <= 1e-9
    assert rev <= 1e-9


def test_criterion_06_confinement_chain(confinement_runs):
    rep40 = confinement_runs[40]["rep"]
    floor = float(rep40.ratio_E_R.min())
    gap_ok = all(confinement_runs[l]["rep"].gap_bound_ok for l in REPORT_DEGREES)
    f20 = confinement_runs[20]["rep"].f_norm
    f60 = confinement_runs[60]["rep"].f_norm
    decay_factor = f20 / f60
    elapsed = confinement_runs["elapsed"]
    ok = floor >= 0.9 and gap_ok and decay_factor >= 10.0 and elapsed < 300.0
    report("acceptance-06 confinement", ok,
           f"near-energy floor {floor:.6f} over [0,1000], gap bound {gap_ok}, "
           f"defect-norm drop 20->60 = {decay_factor:.1f}x, build {elapsed:.0f}s")
    assert floor >= 0.9
    assert gap_ok
    assert decay_factor >= 10.0
    assert elapsed < 300.0


def test_criterion_07_sqrt_growth(confinement_runs):
    rep = confinement_runs[40]["rep"]
    dbk1 = confinement_runs[40]["dbk1"]
    ratios = {T: rep.le1_at(T) / dbk1 for T in (125.0, 250.0, 500.0, 1000.0)}
    steps = [ratios[250.0] / ratios[125.0], ratios[500.0] / ratios[250.0],
             ratios[1000.0] / ratios[500.0]]
    devs = [abs(s / math.sqrt(2.0) - 1.0) for s in steps]
    ok = max(devs) <= 0.10
    report("acceptance-07 sqrt-growth", ok,
           f"ratio doubling-steps vs sqrt(2): deviations "
           f"{', '.join(f'{d:.3%}' for d in devs)}")
    assert max(devs) <= 0.10


def test_criterion_07_frequency_ordering(confinement_runs):
    """Growth-ratio ordering across degrees at a fixed horizon.

    The measured ratio obeys ratio = LE1/|data|_{D(B^1)} ~ sqrt(2T)*tau /
    ((1+tau)*sqrt(2)*tau) = sqrt(T)/(1+tau): at a FIXED horizon it
    strictly decreases in the frequency, because the graph norm in the
    denominator grows one power of tau faster than the accumulated
    space-time norm in the numerator.  Growth in the frequency appears
    only when the horizon grows with the confinement time.  The ordering
    asserted here therefore fails by scaling law; it is kept as stated
    and left red deliberately, with the measured values printed.
    """
    at_T = {}
    comp = {}
    for l in REPORT_DEGREES:
        rep = confinement_runs[l]["rep"]
        dbk1 = confinement_runs[l]["dbk1"]
        tau = confinement_runs[l]["qm"].tau
        at_T[l] = rep.le1_at(500.0) / dbk1
        comp[l] = at_T[l] * (1 + tau) / math.sqrt(500.0)
    increasing = at_T[20] < at_T[40] < at_T[60]
    report("acceptance-07 frequency ordering", increasing,
           f"ratios at T=500: l20={at_T[20]:.4f}, l40={at_T[40]:.4f}, "
           f"l60={at_T[60]:.4f} (tau-compensated: "
           f"{comp[20]:.4f}/{comp[40]:.4f}/{comp[60]:.4f})")
    assert increasing, (
        "growth ratios at fixed T=500 decrease in the angular degree "
        f"({at_T[20]:.4f} > {at_T[40]:.4f} > {at_T[60]:.4f}), matching the "
        "scaling ratio ~ sqrt(T)/(1+tau); the tau-compensated products "
        f"{comp[20]:.4f}, {comp[40]:.4f}, {comp[60]:.4f} are constant, so the "
        "asserted increase cannot occur at any fixed horizon"
    )


def test_criterion_08_bifurcation_contrast(confinement_runs):
    geom_front = WarpGeometry.of(1, 1.0)
    T, x_right = 35.0, 40.0
    grid = Grid(1.0, x_right, 5600)
    x = grid.nodes()
    s = (x - 2.5)
    bump = np.where(np.abs(s) < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - s**2)), 0.0)
    untrapped = {}
    for om in range(1, 65):
        w0 = bump * np.exp(1j * om * x)
        w0 /= math.sqrt(grid.h * float(np.sum(np.abs(w0) ** 2)))
        w1 = -fd_derivative(grid, w0, 1)
        fld = evolve.wave_field(geom_front, grid, [(1, 1, w0, w1)])
        E0 = fld.energy_spectral()
        norms, _ = evolve.space_time_norms(fld, T, dt=0.75)
        untrapped[om] = (norms.le1**2 + E0) / E0
    spread = max(untrapped.values()) / min(untrapped.values())
    trapped = {}
    for l in REPORT_DEGREES:
        rep = confinement_runs[l]["rep"]
        E0 = rep.E
        trapped[l] = (rep.le1_at(500.0) ** 2 + E0) / E0
    contrast = min(trapped.values()) / max(untrapped.values())
    ok = spread <= 2.0 and contrast >= 10.0
    report("acceptance-08 bifurcation contrast", ok,
           f"open-side spread {spread:.3f} over 64 frequencies "
           f"(max {max(untrapped.values()):.2f}), trapped/open contrast "
           f"{contrast:.0f}x")
    assert spread <= 2.0
    assert contrast >= 10.0


def test_criterion_09_identity_and_hardy(geom_m1_front):
    pair = mul.MultiplierPair(
        geom_m1_front, 0.5 * mul.find_admissible_delta(geom_m1_front))
    orders = {}
    wall_ok = True
    for sol in mul.make_corpus(geom_m1_front):
        rep, orders[sol.name] = mul.ibp_richardson(geom_m1_front, pair, sol)
        # the Richardson pair's fine report, at twice both cell counts
        fine = mul.verify_ibp(geom_m1_front, pair, sol, mul._AUDIT_T, mul._AUDIT_X_MAX,
                              2 * mul._AUDIT_NX, 2 * mul._AUDIT_NT)
        wall_ok &= rep.terms["wall_flux"] >= 0
        wall_ok &= fine.terms["wall_flux"] >= 0
    grid = Grid(1.0, 11.0, 2000)
    # the seed at which HARDY_FROZEN_BOUND was measured
    worst = max(mul.hardy_random_corpus(geom_m1_front, grid, ExperimentConfig().seed))
    orders_ok = all(1.8 <= o <= 2.2 for o in orders.values())
    ok = orders_ok and wall_ok and worst <= HARDY_FROZEN_BOUND
    report("acceptance-09 identity audit", ok,
           f"orders {', '.join(f'{v:.2f}' for v in orders.values())}, "
           f"wall flux nonnegative {wall_ok}, hardy worst {worst:.4f} "
           f"<= {HARDY_FROZEN_BOUND}")
    assert len(orders) >= 5
    assert orders_ok, orders
    assert wall_ok
    assert worst <= HARDY_FROZEN_BOUND


def test_criterion_10_coefficient_positivity():
    agreements = []
    min_margins = []
    for m in (1, 2, 3):
        gm = WarpGeometry.of(m, 1.0)
        delta = 0.5 * mul.find_admissible_delta(gm)
        scan = mul.coefficient_scan(gm, mul.MultiplierPair(gm, delta))
        agreements.append(scan.route_agreement)
        min_margins.append(min(scan.min_margins.values()))
        assert scan.all_positive, (m, scan.min_margins)
        # the time-derivative coefficient equals its closed form identically
        assert scan.min_margins["tt"] == pytest.approx(delta, rel=1e-12)
    ok = all(mm > 0 for mm in min_margins) and max(agreements) < 1e-12
    report("acceptance-10 coefficient positivity", ok,
           f"min margins {', '.join(f'{v:.3f}' for v in min_margins)} for "
           f"m=1,2,3; route agreement {max(agreements):.1e}")
    assert ok
