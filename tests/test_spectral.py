import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from warptrap import spectral
from warptrap.geometry import WarpGeometry
from warptrap.spectral import (
    EigensolverError,
    Grid,
    ShellAccumulator,
    TridiagonalOperator,
    build_operator,
    eigen_full,
    lowest_pair,
    quadrature_hk,
    quadrature_l2,
)


def laplacian_eigenvalue(h, k):
    return (2.0 / h**2) * (1.0 - math.cos(k * math.pi * h))


class TestGrid:
    def test_spacing_and_nodes(self):
        g = Grid(0.0, 1.0, 3)
        assert g.h == 0.25
        np.testing.assert_allclose(g.nodes(), [0.25, 0.5, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)

    def test_extension_shares_nodes(self):
        g = Grid(-1.0, 0.0, 99)
        ge = g.extended(5.0)
        assert ge.h == pytest.approx(g.h, rel=1e-15)
        np.testing.assert_array_equal(ge.nodes()[:99], g.nodes())
        assert ge.x_right >= 5.0


class TestBuildOperator:
    def test_stencil_entries(self):
        op = build_operator(Grid(0.0, 1.0, 3), lambda x: 0.0 * x)
        np.testing.assert_allclose(op.diag, [32.0, 32.0, 32.0])
        assert op.offdiag == -16.0

    def test_constant_shift_moves_spectrum(self):
        g = Grid(0.0, 1.0, 60)
        base, _ = eigen_full(build_operator(g, lambda x: 0.0 * x))
        shifted, _ = eigen_full(build_operator(g, lambda x: 0.0 * x + 7.5))
        for p, q in zip(base[:4], shifted[:4]):
            assert q == pytest.approx(p + 7.5, rel=1e-12)

    def test_continuum_limit_first_eigenvalue(self):
        op = build_operator(Grid(0.0, 1.0, 999), lambda x: 0.0 * x)
        lam, _ = lowest_pair(op)
        assert lam == pytest.approx(math.pi**2, rel=1e-4)

    def test_rejects_nonfinite_potential(self):
        with pytest.raises(ValueError), np.errstate(divide="ignore"):
            build_operator(Grid(0.0, 1.0, 9), lambda x: 1.0 / (x - x[3]))


class TestEigenLowest:
    def test_matches_closed_form_discrete_spectrum(self):
        g = Grid(0.0, 1.0, 99)
        vals, _ = eigen_full(build_operator(g, lambda x: 0.0 * x))
        for k, lam in enumerate(vals[:3], start=1):
            assert lam == pytest.approx(laplacian_eigenvalue(g.h, k), rel=1e-10)

    def test_residual_invariant(self):
        geom = WarpGeometry.of(1, -1.0)
        g = Grid(-1.0, 0.0, 400)
        op = build_operator(g, lambda x: geom.potential(25, x))
        vals, vecs = eigen_full(op)
        for lam, v in zip(vals[:5], vecs[:, :5].T):
            assert quadrature_l2(g, op.apply(v) - lam * v) <= 1e-10 * op.diag_inf

    def test_ground_state_has_no_sign_change(self):
        geom = WarpGeometry.of(1, -1.0)
        g = Grid(-1.0, 0.0, 300)
        op = build_operator(g, lambda x: geom.potential(12, x))
        _, v = lowest_pair(op)
        signs = np.sign(v[np.abs(v) > 1e-9 * np.abs(v).max()])
        assert np.all(signs == signs[0])

    def test_quadrature_normalization(self):
        g = Grid(0.0, 2.0, 77)
        _, v = lowest_pair(build_operator(g, lambda x: x))
        assert g.h * np.sum(v**2) == pytest.approx(1.0, rel=1e-12)


def characteristic_polynomial_roots(diag, off):
    """Independent oracle: characteristic polynomial by the three-term
    recurrence, roots via the numpy polynomial solver."""
    n = len(diag)
    p_prev = np.polynomial.Polynomial([1.0])
    p_cur = np.polynomial.Polynomial([diag[0], -1.0])
    for i in range(1, n):
        p_next = np.polynomial.Polynomial([diag[i], -1.0]) * p_cur - off**2 * p_prev
        p_prev, p_cur = p_cur, p_next
    return np.sort(p_cur.roots().real)


def sturm_count(diag, off, lam):
    """Independent oracle: eigenvalues of tridiag(diag, off) below lam, by
    Sylvester inertia (the number of negative pivots of T - lam I)."""
    count = 0
    q = 1.0
    for i, d in enumerate(diag):
        q = d - lam - (off[i - 1] ** 2 / q if i else 0.0)
        if q == 0.0:
            q = -1e-300
        count += q < 0.0
    return count


class TestEigenOracles:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_characteristic_polynomial_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        diag = rng.uniform(1.0, 5.0, n)
        op = TridiagonalOperator(Grid(0.0, 1.0, n), diag, -0.7, "random")
        vals, _ = eigen_full(op)
        ref = characteristic_polynomial_roots(diag, -0.7)
        scale = np.abs(ref).max()
        assert np.max(np.abs(vals - ref)) <= 1e-8 * scale

    def test_lapack_cross_check(self):
        import scipy.linalg as sla

        geom = WarpGeometry.of(1, -1.0)
        g = Grid(-1.0, 6.0, 500)
        op = build_operator(g, lambda x: geom.potential(9, x))
        vals, _ = eigen_full(op)
        ref = sla.eigh_tridiagonal(op.diag, op.offdiag_vector(), eigvals_only=True)
        assert np.max(np.abs(vals - ref) / np.abs(ref)) < 1e-10

    def test_sturm_count_consistency(self):
        geom = WarpGeometry.of(2, -1.0)
        g = Grid(-1.0, 3.0, 200)
        op = build_operator(g, lambda x: geom.potential(6, x))
        vals, _ = eigen_full(op)
        for lam in (vals[0] - 1.0, 0.5 * (vals[4] + vals[5]), vals[-1] + 1.0):
            count = sturm_count(op.diag, op.offdiag_vector(), lam)
            assert count == int(np.sum(vals < lam))

    def test_lapack_failure_is_eigensolver_error(self, monkeypatch):
        import scipy.linalg as sla

        def fail(*args, **kwargs):
            raise sla.LinAlgError("2 eigenvectors failed to converge")

        monkeypatch.setattr(sla, "eigh_tridiagonal", fail)
        op = build_operator(Grid(0.0, 1.0, 9), lambda x: 0.0 * x, potential_id="flat")
        with pytest.raises(EigensolverError, match=r"'flat' \(n=9\)"):
            eigen_full(op)

    @pytest.mark.parametrize("c", [0.0, 12.0], ids=["zero", "flat_warp_l3"])
    def test_constant_potential_shifts_laplacian(self, c):
        # a constant potential c shifts the discrete Dirichlet Laplacian's
        # eigenvalues by c; c = l(l+1) = 12 is the potential of a flat warp
        # (a = 1, a'' = 0) at l = 3
        g = Grid(0.0, 1.0, 99)
        vals, _ = eigen_full(build_operator(g, lambda x: 0.0 * x + c))
        for k, lam in enumerate(vals[:3], start=1):
            ex = laplacian_eigenvalue(g.h, k) + c
            assert abs(lam - ex) / ex < 1e-10

    @settings(max_examples=100)
    @given(m=st.sampled_from([1, 2, 3]), x0=st.floats(0.5, 2.0), side=st.sampled_from([-1, 1]),
           span=st.floats(1.0, 10.0), l=st.integers(0, 30), n=st.integers(20, 400),
           where=st.floats(0.0, 1.0))
    def test_property_sturm_count_matches_eigen_full(self, m, x0, side, span, l, n, where):
        # a shift inside the spectrum, kept off every eigenvalue by more than
        # the rounding of either count
        geom = WarpGeometry.of(m, side * x0)
        grid = Grid(side * x0, side * x0 + span, n)
        op = build_operator(grid, lambda x: geom.potential(l, x))
        vals, _ = eigen_full(op)
        lam = vals[0] + where * (vals[-1] - vals[0])
        assume(np.min(np.abs(vals - lam)) > 1e-9 * op.norm_bound)
        assert sturm_count(op.diag, op.offdiag_vector(), lam) == int(np.sum(vals < lam))

    @settings(max_examples=60)
    @given(m=st.sampled_from([1, 2, 3]), x0=st.floats(0.5, 2.0), side=st.sampled_from([-1, 1]),
           span=st.floats(1.0, 10.0), l=st.integers(0, 30), n=st.integers(20, 400))
    def test_property_lowest_pair_matches_lapack(self, m, x0, side, span, l, n):
        # the value within 4 eps * norm_bound of LAPACK's bisection (stebz),
        # its index 0 certified by Sturm counts either side of it, and the
        # vector h-normalized
        import scipy.linalg as sla

        geom = WarpGeometry.of(m, side * x0)
        op = build_operator(Grid(side * x0, side * x0 + span, n),
                            lambda x: geom.potential(l, x))
        lam, v = lowest_pair(op)
        ref = sla.eigh_tridiagonal(op.diag, op.offdiag_vector(), eigvals_only=True,
                                   select="i", select_range=(0, 0),
                                   lapack_driver="stebz")
        tol = 4 * np.finfo(float).eps * op.norm_bound
        assert abs(lam - ref[0]) <= tol
        off = op.offdiag_vector()
        assert sturm_count(op.diag, off, lam - tol) == 0 < sturm_count(op.diag, off, lam + tol)
        assert abs(op.grid.h * v @ v - 1.0) <= 1e-12

    @settings(max_examples=200)
    @given(diag=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=60),
           e=st.floats(-5.0, 5.0), s=st.floats(-25.0, 25.0))
    def test_property_first_pivot_matches_sturm_count(self, diag, e, s):
        # the bisection's question, a nonpositive pivot of T - s I, is the
        # oracle's "some eigenvalue at or below s"
        off = np.full(len(diag) - 1, e)
        assert spectral._nonpositive_pivot(diag, e * e, s) == (sturm_count(diag, off, s) > 0)


class TestEigenFull:
    def test_orthonormal_and_roundtrip(self):
        geom = WarpGeometry.of(1, -1.0)
        g = Grid(-1.0, 9.0, 700)
        op = build_operator(g, lambda x: geom.potential(8, x))
        vals, vecs = eigen_full(op)
        assert np.all(np.diff(vals) > 0)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(g.n_interior) + 1j * rng.standard_normal(g.n_interior)
        c = g.h * (vecs.T @ w.real) + 1j * (g.h * (vecs.T @ w.imag))
        back = vecs @ c.real + 1j * (vecs @ c.imag)
        assert np.linalg.norm(back - w) / np.linalg.norm(w) < 1e-10


def whole_matrix_pairs(op):
    """Reference post-processing on the whole eigenvector matrix at once:
    quadrature normalisation of LAPACK's columns."""
    import scipy.linalg as sla

    vals, vecs = sla.eigh_tridiagonal(op.diag, op.offdiag_vector(), lapack_driver="stemr")
    return vals, vecs / np.sqrt(op.grid.h * np.sum(vecs * vecs, axis=0))


class TestBlockedSolve:
    # an n that is not a multiple of the tile width, so the last tile is short
    N = 8 * spectral.TILE + 45

    def op(self, l=7):
        geom = WarpGeometry.of(1, -1.0)
        return build_operator(Grid(-1.0, 8.0, self.N), lambda x: geom.potential(l, x), "blk")

    def test_blocks_match_whole_matrix(self):
        # at l = 30 the lowest modes live behind the barrier at x0, with
        # first entries far below their largest
        for l in (7, 30):
            op = self.op(l)
            vals, vecs = eigen_full(op)
            ref_vals, ref_vecs = whole_matrix_pairs(op)
            assert np.array_equal(vals, ref_vals)
            assert np.array_equal(vecs, ref_vecs)

    def test_corrupted_column_in_later_block_is_named(self, monkeypatch):
        import scipy.linalg as sla

        solve = sla.eigh_tridiagonal
        # one column in the second block and the last one, in the short block
        bad = [spectral.TILE + 7, self.N - 1]
        seen = []

        def corrupt(*args, **kwargs):
            vals, vecs = solve(*args, **kwargs)
            vecs[:, bad] = np.random.default_rng(4).standard_normal((vecs.shape[0], len(bad)))
            seen.append((vals[bad], vecs[:, bad].copy()))
            return vals, vecs

        monkeypatch.setattr(sla, "eigh_tridiagonal", corrupt)
        op = self.op()
        with pytest.raises(EigensolverError,
                           match=rf"for indices \[{bad[0]}, {bad[1]}\] of 'blk'") as err:
            eigen_full(op)
        # the gate reports the blocked residuals of the corrupted columns,
        # which match |P v - lambda v| / |v| computed here on the columns as drawn
        (lam, v), = seen
        want = np.linalg.norm(op.apply(v) - lam * v, axis=0) / np.linalg.norm(v, axis=0)
        got = ast.literal_eval(str(err.value).split(" exceed ", 1)[0].split("residuals ", 1)[1])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_nan_column_is_named(self, monkeypatch):
        # a NaN residual compares false with the limit, so the gate must
        # refuse every residual not known to lie at or below it
        import scipy.linalg as sla

        solve = sla.eigh_tridiagonal

        def corrupt(*args, **kwargs):
            vals, vecs = solve(*args, **kwargs)
            vecs[100, 70] = np.nan
            return vals, vecs

        monkeypatch.setattr(sla, "eigh_tridiagonal", corrupt)
        geom = WarpGeometry.of(1, -1.0)
        op = build_operator(Grid(-1.0, 8.0, 200), lambda x: geom.potential(7, x), "nan")
        with pytest.raises(EigensolverError, match=r"for indices \[70\] of 'nan'"):
            eigen_full(op)

    def test_eigen_full_peak_memory(self):
        # one n x n eigenvector matrix plus block temporaries, not three matrices
        import tracemalloc

        n = 3000
        geom = WarpGeometry.of(1, -1.0)
        op = build_operator(Grid(-1.0, 24.0, n), lambda x: geom.potential(40, x))
        tracemalloc.start()
        try:
            eigen_full(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n


class TestQuadrature:
    def test_zero_vector(self):
        g = Grid(0.0, 1.0, 19)
        assert quadrature_l2(g, np.zeros(19)) == 0.0
        assert quadrature_hk(g, np.zeros(19), 2) == 0.0

    def test_sine_l2_limit(self):
        g = Grid(0.0, 1.0, 2000)
        v = np.sin(math.pi * g.nodes())
        assert quadrature_l2(g, v) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)

    def test_sine_h1_seminorm_richardson(self):
        # derivative-part limit is pi/sqrt(2); convergence must be second order
        errs = []
        for n in (200, 400, 800):
            g = Grid(0.0, 1.0, n)
            v = np.sin(math.pi * g.nodes())
            semi = math.sqrt(quadrature_hk(g, v, 1) ** 2 - quadrature_l2(g, v) ** 2)
            errs.append(abs(semi - math.pi / math.sqrt(2.0)))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert 1.8 <= order1 <= 2.2
        assert 1.8 <= order2 <= 2.2

    def test_hk_rejects_large_order(self):
        g = Grid(0.0, 1.0, 9)
        with pytest.raises(ValueError):
            quadrature_hk(g, np.zeros(9), 3)

    def test_conjugation_collapses_volume_weight(self, geom_m1_trapped):
        # L2 of u = a^{-1} w against the volume measure equals flat L2 of w
        g = Grid(-1.0, 4.0, 500)
        x = g.nodes()
        rng = np.random.default_rng(11)
        w = rng.standard_normal(500)
        u = w / geom_m1_trapped.a(x)
        lhs = g.h * np.sum(u**2 * geom_m1_trapped.a_sq(x))
        rhs = g.h * np.sum(w**2)
        assert lhs == pytest.approx(rhs, rel=1e-14)


class TestShells:
    def test_partition(self):
        # the indicator is h on each node's one shell and 0 elsewhere
        g = Grid(-1.0, 40.0, 1500)
        ind = ShellAccumulator(g).indicator
        assert np.all((ind > 0).sum(axis=0) == 1)
        assert np.all(ind[ind > 0] == g.h)

    def test_bracket_ranges(self):
        g = Grid(-1.0, 40.0, 1500)
        br = np.sqrt(1.0 + g.nodes() ** 2)
        for j, mask in enumerate(ShellAccumulator(g).indicator > 0):
            if np.any(mask):
                assert np.all(br[mask] >= 2.0**j)
                assert np.all(br[mask] < 2.0 ** (j + 1))

    def test_shell_sums_synthetic(self):
        g = Grid(-1.0, 40.0, 800)
        dens = np.ones(g.n_interior)
        sums = oracles.shell_sums(g, dens)
        assert sums.sum() == pytest.approx(g.h * g.n_interior, rel=1e-12)
        # a bump confined to shell 0 (<x> < 2) contributes only there
        x = g.nodes()
        dens = np.where(np.abs(x) < 1.0, 1.0, 0.0)
        sums = oracles.shell_sums(g, dens)
        assert sums[0] > 0
        assert np.all(sums[1:] == 0)

    def test_batched_add_matches_shell_sums(self):
        g = Grid(-1.0, 40.0, 800)
        rng = np.random.default_rng(9)
        u = rng.uniform(0.0, 1.0, (g.n_interior, 7))
        e1 = rng.uniform(0.0, 1.0, (g.n_interior, 7))
        acc = ShellAccumulator(g)
        acc.add(np.arange(4.0), u[:, :4].T, e1[:, :4].T)
        acc.add(np.arange(4.0, 7.0), u[:, 4:].T, e1[:, 4:].T)
        assert acc.times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        got_u, got_e1 = np.vstack(acc.u_rows), np.vstack(acc.e1_rows)
        for i in range(7):
            want_u = oracles.shell_sums(g, u[:, i])
            want_e1 = oracles.shell_sums(g, e1[:, i])
            assert np.allclose(got_u[i], want_u, rtol=1e-13, atol=0.0)
            assert np.allclose(got_e1[i], want_e1, rtol=1e-13, atol=0.0)


def _call_time_imports(tree) -> list[str]:
    """Names of the package modules imported inside function bodies of a
    parsed module, for the relative and absolute import forms."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                base = (node.module or "").removeprefix("warptrap").strip(".")
                found += [base] if base else [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [alias.name.removeprefix("warptrap.") for alias in node.names]
    return found


def _definition(tree, name):
    """The top-level def, class or assignment of a parsed module that binds
    ``name``."""
    return next((node for node in tree.body if getattr(node, "name", None) == name
                 or any(getattr(t, "id", None) == name for t in getattr(node, "targets", []))),
                None)


def _exports(tree) -> list[str]:
    """The ``__all__`` names of a parsed module, none if it has no ``__all__``."""
    exported = next((node.value for node in tree.body if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "__all__" for t in node.targets)),
                    ast.List(elts=[]))
    return [e.value for e in exported.elts]


def _unreferenced_exports(pkg: Path) -> list[str]:
    """The ``__all__`` names of the package, as module.name, that no code in
    it references, by name or as an attribute, outside their own definition.
    An import is not a reference."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(pkg.glob("*.py"))}
    found = []
    for module, tree in trees.items():
        for name in _exports(tree):
            own = _definition(tree, name)
            inside = {id(node) for node in ast.walk(own)} if own is not None else set()
            if not any(id(node) not in inside
                       and (getattr(node, "id", None) == name
                            or getattr(node, "attr", None) == name)
                       for t in trees.values() for node in ast.walk(t)):
                found.append(f"{module}.{name}")
    return found


def _package_module(name: str | None, level: int = 0) -> str | None:
    """The package module an import names ("" for the package root), or
    None for a module outside the package."""
    if level == 0 and not (name == "warptrap" or (name or "").startswith("warptrap.")):
        return None
    return (name or "").removeprefix("warptrap").strip(".")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_names(pkg: Path) -> list[str]:
    """user: owner.name for each single-underscore name of another package
    module that a package module imports, at module level or inside a
    function, or reads as an attribute of an imported module."""
    modules = {p.stem for p in pkg.glob("*.py")}
    found = set()
    for path in sorted(pkg.glob("*.py")):
        user, tree = path.stem, ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        # local name -> the package module it is bound to
        bound = {}
        for node in imports:
            if isinstance(node, ast.ImportFrom):
                base = _package_module(node.module, node.level)
                if base:
                    found.update(f"{user}: {base}.{alias.name}"
                                 for alias in node.names if _is_private(alias.name))
                elif base == "":
                    bound.update({alias.asname or alias.name: alias.name
                                  for alias in node.names if alias.name in modules})
            else:
                for alias in node.names:
                    base = _package_module(alias.name)
                    if base is not None:
                        bound[alias.asname or "warptrap"] = base if alias.asname else ""

        def owner(node):
            # the package module an expression names, or None
            if isinstance(node, ast.Name):
                return bound.get(node.id)
            if (isinstance(node, ast.Attribute) and node.attr in modules
                    and owner(node.value) == ""):
                return node.attr
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _is_private(node.attr):
                mod = owner(node.value)
                if mod is not None and mod != user:
                    found.add(f"{user}: {mod or 'warptrap'}.{node.attr}")
    return sorted(found)


def _unbound_exports(pkg: Path) -> list[str]:
    """module.name for each ``__all__`` entry of a package module that no
    top-level def, class or assignment of that module binds."""
    found = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.stem}.{name}" for name in _exports(tree)
                  if _definition(tree, name) is None]
    return found


def _public_members(cls: ast.ClassDef):
    """(name, defining node) of each public member of a parsed class: its
    methods and properties, its annotated class-body fields, and the
    attributes its ``__init__`` assigns on self."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
            if node.name == "__init__":
                for stmt in ast.walk(node):
                    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                               [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
                               else [])
                    for t in targets:
                        if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self":
                            yield t.attr, stmt
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _unread_members(pkg: Path) -> list[str]:
    """module.Class.member for each public member of a public top-level class
    of the package whose name no code in the package loads as an attribute
    outside the member's own definition."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(pkg.glob("*.py"))}
    loads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for name, own in _public_members(cls):
                inside = {id(node) for node in ast.walk(own)}
                if not name.startswith("_") and not any(
                        node.attr == name and id(node) not in inside for node in loads):
                    found.append(f"{module}.{cls.name}.{name}")
    return sorted(set(found))


def _callers(pkg: Path, name: str) -> set[str]:
    """module.function of every function of the package whose body calls
    ``name``, by name or as an attribute."""
    found = set()
    for path in sorted(pkg.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call) and _calls(node, name) for node in ast.walk(fn)):
                found.add(f"{path.stem}.{fn.name}")
    return found


def _calls(call: ast.Call, name: str) -> bool:
    """Whether a call names ``name``, as a bare name or as an attribute."""
    return name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))


def _options(pkg: Path):
    """(module.[Class.]function.parameter, called name, position, default, the
    calls of the package outside the function's own definition that name it)
    for each parameter with a default of a top-level function or method of
    the package.  A method's position leaves out self or cls, and
    ``__init__`` is called by its class name; a keyword-only parameter has
    no position."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(pkg.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    for module, tree in trees.items():
        defs = [(None, node) for node in tree.body]
        defs += [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body]
        for cls, fn in defs:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                                for d in fn.decorator_list)
            name = cls.name if fn.name == "__init__" else fn.name
            inside = {id(node) for node in ast.walk(fn)}
            setters = [c for c in calls if id(c) not in inside and _calls(c, name)]
            qualname = ".".join(filter(None, [module, cls and cls.name, fn.name]))
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, (arg, default) in enumerate(zip(positional[first:], args.defaults)):
                yield f"{qualname}.{arg.arg}", arg.arg, first + i - bound, default, setters
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{qualname}.{arg.arg}", arg.arg, None, default, setters


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call passes the parameter, by keyword or by position."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or position is not None and (len(call.args) > position or any(
                isinstance(a, ast.Starred) for a in call.args)))


def _options_without_setter(pkg: Path) -> list[str]:
    """The defaulted parameters of ``_options`` that no call in the package
    passes, and the True/False ones that every call passes."""
    found = []
    for option, name, position, default, setters in _options(pkg):
        passed = [_passes(c, name, position) for c in setters]
        flag = isinstance(default, ast.Constant) and isinstance(default.value, bool)
        if not any(passed) or flag and all(passed):
            found.append(option)
    return found


# public class members that may lack a reader in the package, each with its
# reason
UNREAD_MEMBERS = {
    "evolve.ModeState.roundtrip_error": "the run-health block of the manifest is to call it "
                                        "(ROADMAP.md item 1); w_grid and wt_grid are read "
                                        "through it",
    "spectral.LeNorms.le": "the paper's LE norm; TestNorms pins it to closed forms, the only "
                           "closed-form check of the shell weights LE1 shares",
    "spectral.LeNorms.le_star": "the paper's dual LE* norm; pinned by TestNorms with LE",
    **{f"evolve.AuditResult.{name}": "le_bound_audit's result, which the bifurcation "
                                     "command is to report (ROADMAP.md item 4)"
       for name in ("lhs_lelocal", "ratio_lelocal", "lhs_lepositive", "ratio_lepositive",
                    "E0")},
}

# exported names that may lack a caller in the package, each with its reason
UNCALLED_EXPORTS = {
    "evolve.le_bound_audit": "the open-side family of `bifurcation` is to call it "
                                 "(ROADMAP.md)",
    "evolve.space_time_norms": "the benchmark's open-family workload and acceptance "
                               "criterion 08 call it; le_bound_audit, its former caller, "
                               "feeds the same LE1 accumulator from its own sweep",
}


# defaulted parameters that no call in the package may pass, each with its
# reason
OPTIONS_WITHOUT_SETTER = {
    "cli.main.argv": "the console script calls main(), which then reads sys.argv",
    "evolve.run_confinement.dt_le": "criterion 06 runs its T = 500 degrees at LE1 stride 2, "
                                    "where the CLI takes 1, and the strided-sweep property "
                                    "draws the stride",
}


class TestModuleBoundaries:
    def test_every_option_has_a_production_setter(self):
        # a default that no run overrides is a constant, and a True/False
        # default that every call overrides is a missing default: either way
        # the parameter carries a choice no run makes
        found = set(_options_without_setter(Path(spectral.__file__).parent))
        unset = sorted(found - OPTIONS_WITHOUT_SETTER.keys())
        assert not unset, f"defaulted parameters without a setter in src: {unset}"
        # an allowed parameter that gains a setter leaves the list
        assert found >= OPTIONS_WITHOUT_SETTER.keys(), OPTIONS_WITHOUT_SETTER.keys() - found

    def test_every_export_has_a_caller(self):
        # reference evaluators that only tests run live in tests/oracles.py
        found = set(_unreferenced_exports(Path(spectral.__file__).parent))
        uncalled = sorted(found - UNCALLED_EXPORTS.keys())
        assert not uncalled, f"exported without a caller in src: {uncalled}"
        # an allowed name that gains a caller leaves the list
        assert found >= UNCALLED_EXPORTS.keys(), UNCALLED_EXPORTS.keys() - found

    def test_every_public_member_has_a_reader(self):
        # methods, properties, dataclass fields and the attributes __init__
        # sets; a member counts as read where the package loads its name as
        # an attribute outside the member's own definition
        found = set(_unread_members(Path(spectral.__file__).parent))
        unread = sorted(found - UNREAD_MEMBERS.keys())
        assert not unread, f"public members without a reader in src: {unread}"
        # an allowed member that gains a reader leaves the list
        assert found >= UNREAD_MEMBERS.keys(), UNREAD_MEMBERS.keys() - found

    def test_every_config_field_is_read(self):
        # a config field that no function of cli reads as cfg.<field> is a
        # knob no run uses
        import dataclasses

        from warptrap.cli import ExperimentConfig

        tree = ast.parse((Path(spectral.__file__).parent / "cli.py").read_text())
        read = {node.attr for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load) and getattr(node.value, "id", None) == "cfg"}
        unread = sorted({f.name for f in dataclasses.fields(ExperimentConfig)} - read)
        assert not unread, f"config fields no command reads: {unread}"

    def test_no_refusal_after_the_output_directory(self):
        # main makes the OutputCollector, and with it the output directory,
        # after the planner has raised every ConfigError: no function of cli
        # that makes or receives a collector raises one
        tree = ast.parse((Path(spectral.__file__).parent / "cli.py").read_text())
        collectors, refusing = set(), set()
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
                if any(getattr(a.annotation, "id", None) == "OutputCollector" for a in args) \
                        or any(_calls(c, "OutputCollector") for c in calls):
                    collectors.add(fn.name)
                if any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                       and _calls(node.exc, "ConfigError") for node in ast.walk(fn)):
                    refusing.add(fn.name)
        assert {"main", "cmd_confinement", "cmd_bifurcation"} <= collectors
        assert not collectors & refusing, sorted(collectors & refusing)

    def test_no_private_name_crosses_a_module(self):
        # a name with a leading underscore is used only in the module that
        # defines it; a name another module needs is public there
        found = _foreign_private_names(Path(spectral.__file__).parent)
        assert not found, f"private names used outside their module: {found}"

    def test_every_export_is_defined_in_its_module(self):
        # each name has one home: no module re-exports another's names
        found = _unbound_exports(Path(spectral.__file__).parent)
        assert not found, f"exported but not defined in the exporting module: {found}"

    def test_one_evolution_sweep(self):
        # every reduction over time samples goes through evolve._sweep; only
        # the drift check builds its own phase block, and only the band
        # reconstruction its own densities
        pkg = Path(spectral.__file__).parent
        assert _callers(pkg, "_phase_block") == {"evolve._sweep", "evolve._energy_drift"}
        assert _callers(pkg, "_densities") == {"evolve._sweep", "evolve._band_energy"}

    def test_no_call_time_imports_between_spectral_and_evolve(self):
        pkg = Path(spectral.__file__).parent
        for name, other in (("spectral", "evolve"), ("evolve", "spectral")):
            tree = ast.parse((pkg / f"{name}.py").read_text())
            assert other not in _call_time_imports(tree), name

    def test_spectral_loads_without_evolve(self):
        code = "import sys, warptrap.spectral; print('warptrap.evolve' in sys.modules)"
        # the child finds the package where this process found it
        src = str(Path(spectral.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"
