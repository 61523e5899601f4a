"""Workload definitions, each with why it exists, and their output checks.

A workload runs inside a fresh worker process (see ``worker.py``).  Its
``run`` is the timed part: the program's own work, exactly as a user
starts it.  Its ``read`` collects the headline numbers afterwards, and
``check`` compares them with the values recorded at the seed commit in
``reference.json``.

The seed is the only source of variation: it draws the open-family
frequencies and is passed to ``multiplier-audit --seed``.  The other two
workloads take no random input, so every seed gives the same run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Relative tolerance for every headline number.  BLAS-order roundoff in
# these quantities is around 1e-12; a swap of eigensolver backend moves
# them by at most 1e-10 or so, well inside this.
RTOL = 1e-6

# Open-family data sets per execution: this many seed-drawn frequencies
# plus one fixed anchor whose ratio is recorded in reference.json.
OPEN_FREQUENCIES = 8
OPEN_ANCHOR = 64.0
OPEN_T, OPEN_DT = 35.0, 0.75


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Wall seconds of one execution (spawn, set-up, run and check) on a
    # 2-vCPU box at the recorded commit.  A run makes --seconds // nominal_s
    # executions, a count that does not depend on how fast the machine is.
    nominal_s: float
    run: Callable[[int, Path], int]  # (seed, out_dir) -> exit code
    read: Callable[[int, Path], dict]  # (seed, out_dir) -> headline numbers
    check: Callable[[int, dict], list]  # (seed, numbers) -> problems


def _cli(argv: list[str], out_dir: Path) -> int:
    from warptrap import cli

    return cli.main(argv + ["--out", str(out_dir)])


def _manifest_passes(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())["passes"]


def _csv_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _num(text: str) -> float:
    """A CSV number; numpy 2 scalars are written as ``np.float64(x)``."""
    if text.startswith("np.float64("):
        text = text[len("np.float64("):-1]
    return float(text)


def _close(name: str, got: float, want: float) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= RTOL * abs(want):
        return []
    return [f"{name} = {got!r}, recorded {want!r} (rtol {RTOL:g})"]


def _all_pass(numbers: dict) -> list[str]:
    failed = [k for k, ok in numbers["passes"].items() if not ok]
    return [f"manifest checks failed: {failed}"] if failed else []


# -- trapped-confinement -----------------------------------------------------------

CONFINEMENT_ARGV = ["confinement", "--x0", "-1.0", "--l", "40", "--T", "1000",
                    "--x-max", "24", "--R", "1", "--dt", "1.0", "--causal", "audited"]


def _confinement_read(seed: int, out_dir: Path) -> dict:
    summary = json.loads((out_dir / "confinement_summary.json").read_text())["per_l"]["40"]
    last = _csv_rows(out_dir / "evolution_l40.csv")[-1]
    return {
        "passes": _manifest_passes(out_dir),
        "tau_sq": summary["tau"] ** 2,
        "min_ratio_E_R": summary["min_ratio_E_R"],
        "t_final": _num(last["t"]),
        "LE1_T": _num(last["LE1_running"]),
    }


def _confinement_check(seed: int, got: dict) -> list[str]:
    ref = REFERENCE["trapped-confinement"]
    problems = _all_pass(got)
    if got["t_final"] != 1000.0:
        problems.append(f"last sample at t = {got['t_final']}, expected 1000")
    for key in ("tau_sq", "min_ratio_E_R", "LE1_T"):
        problems += _close(key, got[key], ref[key])
    return problems


# -- open-family -------------------------------------------------------------------


def open_frequencies(seed: int) -> list[float]:
    import numpy as np

    drawn = np.random.default_rng(seed).uniform(1.0, 64.0, OPEN_FREQUENCIES)
    return [float(w) for w in drawn] + [OPEN_ANCHOR]


def _open_run(seed: int, out_dir: Path) -> int:
    """Criterion 08's open side: one operator, many data sets."""
    import numpy as np
    from warptrap import evolve
    from warptrap.geometry import WarpGeometry
    from warptrap.spectral import Grid, fd_derivative

    geom = WarpGeometry.of(1, 1.0)
    grid = Grid(1.0, 40.0, 5600)
    x = grid.nodes()
    s = x - 2.5
    bump = np.where(np.abs(s) < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - s**2)), 0.0)
    ratios = []
    for om in open_frequencies(seed):
        w0 = bump * np.exp(1j * om * x)
        w0 /= math.sqrt(grid.h * float(np.sum(np.abs(w0) ** 2)))
        w1 = -fd_derivative(grid, w0, 1)
        fld = evolve.wave_field(geom, grid, [(1, 1, w0, w1)])
        E0 = fld.energy_spectral()
        norms, _ = evolve.space_time_norms(fld, OPEN_T, dt=OPEN_DT)
        ratios.append((norms.le1**2 + E0) / E0)
    (out_dir / "open_family.json").write_text(json.dumps({"ratios": ratios}))
    return 0


def _open_read(seed: int, out_dir: Path) -> dict:
    return json.loads((out_dir / "open_family.json").read_text())


def _open_check(seed: int, got: dict) -> list[str]:
    ratios = got["ratios"]
    if len(ratios) != OPEN_FREQUENCIES + 1 or not all(
            math.isfinite(r) and r >= 1.0 for r in ratios):
        return [f"ratios malformed: {ratios}"]
    problems = _close("anchor_ratio", ratios[-1], REFERENCE["open-family"]["anchor_ratio"])
    spread = max(ratios) / min(ratios)
    if spread > 2.0:
        problems.append(f"open-family spread {spread:.4f} > 2")
    return problems


# -- quasimode-scan ----------------------------------------------------------------

QUASIMODE_DEGREES = ["20", "30", "40", "50", "60", "70"]


def _quasimode_read(seed: int, out_dir: Path) -> dict:
    rows = _csv_rows(out_dir / "quasimodes.csv")
    return {"passes": _manifest_passes(out_dir),
            "tau_sq": {r["l"]: _num(r["tau_sq"]) for r in rows}}


def _quasimode_check(seed: int, got: dict) -> list[str]:
    ref = REFERENCE["quasimode-scan"]["tau_sq"]
    problems = _all_pass(got)
    if sorted(got["tau_sq"]) != sorted(ref):
        return problems + [f"degrees {sorted(got['tau_sq'])}, expected {sorted(ref)}"]
    for l in ref:
        problems += _close(f"tau_sq[l={l}]", got["tau_sq"][l], ref[l])
    return problems


# -- multiplier-audit --------------------------------------------------------------

# Seeds whose Hardy worst ratio exceeds the CLI's frozen bound (written to
# multiplier_summary.json) make the CLI exit 2; the benchmark counts those
# executions as failed, exactly as the CLI reports them, and still checks
# their numbers.  At the recorded commit these are seeds 0, 6, 8, 10, 21,
# 36, 51, 57 and 92 among 0-99.
HARDY_PROVEN_CAP = 4.0


def _audit_read(seed: int, out_dir: Path) -> dict:
    rows = _csv_rows(out_dir / "multiplier_checks.csv")
    summary = json.loads((out_dir / "multiplier_summary.json").read_text())
    return {
        "passes": _manifest_passes(out_dir),
        "orders": {r["check"]: _num(r["order"]) for r in rows
                   if r["check"].startswith("ibp_")},
        "hardy_worst": summary["hardy_worst"],
        "hardy_bound": summary["hardy_bound"],
    }


def _audit_check(seed: int, got: dict) -> list[str]:
    ref = REFERENCE["multiplier-audit"]
    problems = []
    tripped = got["hardy_worst"] > got["hardy_bound"]
    failed = {k for k, ok in got["passes"].items() if not ok}
    if failed != ({"hardy_bound"} if tripped else set()):
        problems.append(f"manifest checks failed: {sorted(failed)}")
    if sorted(got["orders"]) != sorted(ref["orders"]):
        problems.append(f"identity checks {sorted(got['orders'])}")
    else:
        for name, want in ref["orders"].items():
            problems += _close(f"order[{name}]", got["orders"][name], want)
    want = ref["hardy_worst"].get(str(seed))
    if want is not None:
        problems += _close("hardy_worst", got["hardy_worst"], want)
    elif not 0.0 < got["hardy_worst"] <= HARDY_PROVEN_CAP:
        problems.append(f"hardy_worst {got['hardy_worst']} outside (0, {HARDY_PROVEN_CAP}]")
    return problems


# Which layer moves which end-to-end metric (per-layer names as in
# BENCHMARK.json):
# - spectral.eigen_full / eigen_lowest and kernels.* move run_s on
#   trapped-confinement, open-family and quasimode-scan, and peak_rss_mb on
#   the first two; multiplier-audit is the control and should not move.
# - evolve.from_spectral, evolve.propagator.* and spectral.ShellAccumulator.add
#   move run_s on open-family and, less, on trapped-confinement.
# - quasimode.bracket_check re-solves the operator build_quasimode solves, so
#   quasimode-scan makes two eigen_lowest calls per degree.
# - multiplier.* move run_s on multiplier-audit only.
WORKLOADS = {w.name: w for w in [
    Workload(
        "trapped-confinement",
        "Acceptance confinement run (l=40, T=1000, n=5074): one large eigen_full, "
        "then the LE1 reconstruction GEMMs.",
        24.0,
        lambda seed, out: _cli(CONFINEMENT_ARGV, out),
        _confinement_read, _confinement_check),
    Workload(
        "open-family",
        "Criterion-08 open side (n=5600): one solve shared by seed-drawn data sets, "
        "so propagator-cache hits, reconstruction GEMMs and shell sums show.",
        26.0,
        _open_run, _open_read, _open_check),
    Workload(
        "quasimode-scan",
        "Quasimode scan over six degrees: many small eigen_lowest solves "
        "(n=410-1420) and the lazy smooth-step set-up, no evolution.",
        10.0,
        lambda seed, out: _cli(["quasimode", "--x0", "-1.0", "--l", *QUASIMODE_DEGREES],
                               out),
        _quasimode_read, _quasimode_check),
    Workload(
        "multiplier-audit",
        "Control with no eigensolver and no evolution: sympy multipliers, identity "
        "quadrature and the seeded Hardy corpus.",
        7.5,
        lambda seed, out: _cli(["multiplier-audit", "--x0", "1.0", "--seed", str(seed)],
                               out),
        _audit_read, _audit_check),
]}
