"""Every number of small runs of the four commands, held to recorded values.

``tests/golden.json`` holds the exit code, the check verdicts and the
numbers each run of ``record_golden.RUNS`` writes: the quasimode table
and fits, the confinement and bifurcation summaries, their time series
thinned to every ``record_golden.THIN``-th row, and the audit's identity
gaps, orders, delta and Hardy worst ratio.  The evolving runs are held
to it a second time at one BLAS thread.  ``python tests/record_golden.py``
re-records it.
"""

import contextlib
import ctypes
import json
import math

import pytest
import record_golden

from warptrap import spectral

GOLDEN = json.loads(record_golden.GOLDEN.read_text())

# solved and evolved values: an eigenvalue, an energy or a fit moves by a
# few units in the last place under another summation order or BLAS build,
# and a numerics change such as a 1e-9 relative change of one density
# weight moves it past this
REL = 1e-12
# the relative energy deviation of the drift check is rounding alone
# (about 1e-14): another summation order moves it by a few eps
DRIFT_ABS = 1e-13


def _abs_tol(values: dict, name: str, field: str, label: str) -> float:
    """The absolute part of a value's tolerance, on the scale of the data
    it is a difference of; 0 for the values whose rounding is relative."""
    if field == "energy_drift":
        return DRIFT_ABS
    if field == "duhamel_gap":
        # the distance between the state and its rotated data, each of norm
        # sqrt(2 E): rounding alone at t = 0, absolute on that scale later
        return REL * math.sqrt(2.0 * values[name]["E"]["t=0.0"])
    if field == "gap":
        # lhs - rhs of the identity (about 1e-7 of each), or the coefficient
        # routes' agreement (rounding alone)
        return REL * max(abs(values[name]["lhs"][label]), abs(values[name]["rhs"][label]))
    if field == "order":
        # log2 of the coarse gap over the fine one, about a quarter of it,
        # each gap within the tolerance above
        order, gap = values[name]["order"][label], values[name]["gap"][label]
        return _abs_tol(values, name, "gap", label) * (1.0 + 2.0 ** order) / (gap * math.log(2.0))
    return 0.0


def _close(got, want, values, name, field, label) -> bool:
    """Whether a number is within its tolerance; any other value, a verdict
    or a text cell, must be equal."""
    if not (isinstance(want, float) and isinstance(got, float)):
        return got == want
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL * abs(want) + _abs_tol(values, name, field, label)


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_golden_numbers(run, tmp_path):
    _check(run, tmp_path)


@pytest.mark.parametrize("run", ["bifurcation", "confinement"])
def test_golden_numbers_on_one_blas_thread(run, tmp_path):
    # another thread count splits the GEMMs' sums differently, so the
    # evolving runs move in their last bits, inside the same tolerances
    with _blas_threads(1):
        _check(run, tmp_path)


@contextlib.contextmanager
def _blas_threads(count: int):
    """numpy's bundled OpenBLAS at ``count`` threads, restored on exit.

    Set through the global setter: in the OpenBLAS 0.3.31 that numpy 2.4
    bundles, ``openblas_set_num_threads_local`` called in one thread sets
    the count of every thread anyway."""
    (path,) = spectral._bundled_openblas()
    lib = ctypes.CDLL(str(path))
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    try:
        set_(count)
        assert get() == count
        yield
    finally:
        set_(before)


def _check(run: str, tmp_path) -> None:
    """Run one recorded command and hold its exit code, verdicts and every
    number to ``tests/golden.json``."""
    want = GOLDEN[run]
    got = record_golden.run(want["argv"], tmp_path)
    assert (got["exit_code"], got["passes"]) == (want["exit_code"], want["passes"])
    assert _shape(got["values"]) == _shape(want["values"])
    moved = [f"{name} {field} {label}: {got['values'][name][field][label]!r} != {w!r}"
             for name, fields in want["values"].items()
             for field, labels in fields.items()
             for label, w in labels.items()
             if not _close(got["values"][name][field][label], w, want["values"], name, field,
                           label)]
    assert not moved, "\n".join(moved)


def _shape(values: dict) -> dict:
    return {name: {field: sorted(labels) for field, labels in fields.items()}
            for name, fields in values.items()}
