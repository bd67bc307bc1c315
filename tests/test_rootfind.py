"""Colleague-matrix rootfinding with subdivision, polish, and dedup."""

import numpy as np
import pytest

from l1rec import rootfind
from l1rec.catalog import catalog_function
from l1rec.chebyshev import Basis, ChebSeries, interpolate_on_grid
from l1rec.errors import SubdivisionLimit
from l1rec.funcrep import FuncRep, Residual
from l1rec.rootfind import _dedup, roots_in_interval, sign_changing


def t_basis(deg):
    c = np.zeros(deg + 1)
    c[deg] = 1.0
    return ChebSeries(Basis.FIRST, c)


class TestSeriesRoots:
    def test_t5(self):
        r = roots_in_interval(t_basis(5))
        k = np.arange(5, 0, -1)
        expect = np.cos((2 * k - 1) * np.pi / 10)
        assert r == pytest.approx(expect, abs=1e-13)

    def test_constant(self):
        assert roots_in_interval(ChebSeries(Basis.FIRST, [1.0])).size == 0

    def test_linear(self):
        r = roots_in_interval(ChebSeries(Basis.SECOND, [0.25, 0.5]))  # 0.25 + x
        assert r == pytest.approx([-0.25], abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 51, 120, 200])
    def test_tn_roots(self, n):
        r = roots_in_interval(t_basis(n))
        k = np.arange(n, 0, -1)
        expect = np.cos((2 * k - 1) * np.pi / (2 * n))
        assert len(r) == n
        assert np.max(np.abs(r - expect)) < 1e-12

    @pytest.mark.parametrize("budget, ok", [(20, True), (19, False)])
    def test_subdivision_budget(self, monkeypatch, budget, ok):
        # T_200 needs exactly 20 subdivisions before every subinterval's
        # series has degree <= 50; the budget counts them over all levels
        monkeypatch.setattr(rootfind, "MAX_SUBINTERVALS", budget)
        if ok:
            assert len(roots_in_interval(t_basis(200))) == 200
        else:
            with pytest.raises(SubdivisionLimit):
                roots_in_interval(t_basis(200))

    def test_rejects_a_callable(self):
        with pytest.raises(TypeError):
            roots_in_interval(np.sin)

    def test_double_root_near_dedup(self):
        # (x-0.3)^2 in the T basis: x^2 = (T_0+T_2)/2
        c = np.array([0.5 + 0.09, -0.6, 0.5])
        r = roots_in_interval(ChebSeries(Basis.FIRST, c))
        assert np.all(np.abs(r - 0.3) < 1e-6)


def dedup_reference(roots, tol=rootfind.DEDUP_TOL):
    """The grouping loop: each root within tol of its predecessor joins its
    run, and a run is replaced by its mean."""
    groups = []
    for r in np.sort(roots):
        if groups and r - groups[-1][-1] <= tol:
            groups[-1].append(r)
        else:
            groups.append([r])
    return np.array([np.mean(g) for g in groups])


class TestDedup:
    def test_runs_match_the_grouping_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            centres = np.sort(rng.uniform(-1.0, 1.0, rng.integers(1, 20)))
            sizes = rng.integers(1, 9, centres.size)
            roots = np.concatenate([c + rng.uniform(-1, 1, k) * 3e-13 for c, k in zip(centres, sizes)])
            rng.shuffle(roots)
            got, ref = _dedup(roots), dedup_reference(roots)
            assert got.shape == ref.shape
            # a run of k roots is summed in another order than np.mean's, so
            # the means differ by at most twice the (k-1) eps |x| rounding of
            # a k-term mean; runs of one or two are bitwise equal
            assert np.max(np.abs(got - ref)) <= 2 * 7 * np.finfo(float).eps
        pairs = np.array([0.5, 0.5 + 5e-13, -0.25, -0.25 - 1e-13, 0.75, 0.1, 0.1 + 2e-12])
        assert np.array_equal(_dedup(pairs), dedup_reference(pairs))
        assert _dedup(pairs).size == 5

    def test_empty(self):
        assert _dedup(np.empty(0)).size == 0


class TestResidualRoots:
    def test_absx_minus_interpolant(self):
        f = FuncRep(np.abs, breakpoints=[0.0])
        p = ChebSeries(Basis.SECOND, [np.sqrt(2) / 4, 0.0, np.sqrt(2) / 4])
        res = Residual(f, p)
        assert res.roots == pytest.approx(
            [-np.sqrt(2) / 2, 0.0, np.sqrt(2) / 2], abs=1e-12
        )
        changing = res._classified
        assert list(changing) == [True, False, True]

    def test_sqrt_residual_odd_degree(self):
        # odd n: all n+1 interpolation nodes are simple sign-changing roots
        f = FuncRep(lambda x: np.sqrt(np.maximum(0.0, 1.0 - x * x)), name="sqrt1mx2")
        from l1rec.chebyshev import build_grid, interpolate_on_grid

        n = 7
        p = interpolate_on_grid(f.eval, n)
        res = Residual(f, p)
        assert res.sign_change_roots == pytest.approx(build_grid(n).points, abs=1e-10)

    def test_sqrt_residual_even_degree_touching_zero(self):
        # even n: x=0 is a node but the even residual only touches there
        f = FuncRep(lambda x: np.sqrt(np.maximum(0.0, 1.0 - x * x)), name="sqrt1mx2")
        from l1rec.chebyshev import build_grid, interpolate_on_grid

        n = 8
        p = interpolate_on_grid(f.eval, n)
        res = Residual(f, p)
        nodes = build_grid(n).points
        expect = nodes[np.abs(nodes) > 1e-12]  # all nodes except 0
        assert res.sign_change_roots == pytest.approx(expect, abs=1e-10)
        # near-zero touching roots, if reported, are classified non-changing
        near0 = res.roots[np.abs(res.roots) < 1e-6]
        assert not np.any(res._classified[np.abs(res.roots) < 1e-6])
        assert near0.size <= 2

    def test_zero_residual_detected(self):
        p = ChebSeries(Basis.SECOND, [0.5, 0.0, 1.0])
        f = FuncRep.from_series(p)
        res = Residual(f, p)
        assert res.negligible
        assert res.roots.size == 0

    def test_verification_rejects_nonroots(self):
        f = FuncRep(lambda x: np.exp(x))
        res = Residual(f, ChebSeries(Basis.SECOND, [0.0]))
        assert res.roots.size == 0  # exp has no roots

    @pytest.mark.parametrize("name, n", [("expsin10", 10), ("absx14", 20)])
    def test_evaluator_calls(self, name, n):
        # the roots come from f's proxy; the evaluator only polishes and
        # verifies them: 1 start + 3 polish steps + 1 verification
        base = catalog_function(name)
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return base.eval(x)

        f = FuncRep(counted, breakpoints=base.breakpoints, name=name)
        res = Residual(f, interpolate_on_grid(f, n))
        res.scale, f.proxy  # built before counting
        calls.clear()
        assert res.roots.size >= n + 1
        assert len(calls) <= 5


class TestSignChanging:
    def test_touching_root(self):
        s = ChebSeries(Basis.FIRST, [0.5, 0.0, 0.5])  # x^2
        changing, signs = sign_changing(s, np.array([0.0]))
        assert list(changing) == [False]
        assert np.all(signs > 0)

    def test_simple_roots_alternate(self):
        s = t_basis(3)
        r = roots_in_interval(s)
        changing, signs = sign_changing(s, r)
        assert all(changing)
        assert np.all(signs[:-1] * signs[1:] < 0)
