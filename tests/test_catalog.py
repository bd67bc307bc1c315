"""Catalog functions and FuncRep representation invariants."""

import math

import numpy as np
import pytest

from l1rec import catalog
from l1rec.catalog import CATALOG_NAMES, catalog_function, funcrep_from_expression, resolve_function
from l1rec.chebyshev import Basis, ChebSeries
from l1rec.errors import DomainError, SubdivisionLimit
from l1rec.funcrep import Corruption, FuncRep
from l1rec.localization import concentration_ratio
from l1rec.newton import best_l1


class TestCatalog:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_constructible(self, name):
        f = catalog_function(name)
        assert np.isfinite(f.eval(np.array([0.1]))[0])

    def test_unknown(self):
        with pytest.raises(KeyError):
            catalog_function("nope")

    def test_corrupted_t5_metadata(self):
        f = catalog_function("corrupted_t5")
        assert f.corruption.measure == pytest.approx(0.033, abs=1e-12)
        assert f.corruption.zeta == pytest.approx(0.903)

    def test_legendre8_measure(self):
        f = catalog_function("legendre8_corrupted")
        assert f.corruption.measure == pytest.approx(0.349, abs=1e-12)

    def test_resolve_expression(self):
        f = resolve_function("sin(3*x)")
        assert f.eval(np.array([0.5]))[0] == pytest.approx(np.sin(1.5))

    def test_nested_kink_breakpoints(self):
        # the outer abs kinks at the roots +-0.5 of abs(x)-0.5, the inner at 0
        f = funcrep_from_expression("abs(abs(x)-0.5)")
        assert f.breakpoints == pytest.approx([-0.5, 0.0, 0.5], abs=1e-12)


class TestFuncRepInvariants:
    @pytest.mark.parametrize("name", ["sqrt1mx2", "absx", "absx14", "expsin10"])
    def test_proxy_accuracy_dense(self, name):
        f = catalog_function(name)
        x = np.linspace(-0.9999, 0.9999, 3001)
        err = np.max(np.abs(f.eval(x) - f.proxy(x)))
        assert err <= f.proxy_tol * (1.0 + f.proxy.coeff_max) * 10

    @pytest.mark.parametrize("name", ["corrupted_t5", "legendre8_corrupted"])
    def test_proxy_accuracy_with_corruption(self, name):
        f = catalog_function(name)
        x = np.linspace(-1, 1, 4001)
        outside = ~f.corruption.contains(x)
        err = np.max(np.abs(f.eval(x[outside]) - f.proxy(x[outside])))
        assert err <= f.proxy_tol * (1.0 + f.proxy.coeff_max) * 10

    def test_corruption_validation(self):
        with pytest.raises(ValueError):
            Corruption(intervals=((0.0, 0.2), (0.1, 0.3)))  # overlap
        with pytest.raises(ValueError):
            Corruption(intervals=((-2.0, 0.0),))  # outside [-1, 1]

    def test_intervals_in_any_order(self):
        # Corruption and concentration_ratio share one validator, which sorts
        corr = Corruption(intervals=((0.5, 0.6), (-0.5, -0.4)))
        assert corr.intervals == ((-0.5, -0.4), (0.5, 0.6))
        p = ChebSeries(Basis.SECOND, [1.0])
        rep = concentration_ratio(p, ((0.5, 0.6), (-0.5, -0.4)))
        assert rep.measure == pytest.approx(0.2)
        for check in (Corruption, lambda ivs: concentration_ratio(p, ivs)):
            with pytest.raises(ValueError, match="disjoint"):
                check(((0.2, 0.4), (0.0, 0.3)))

    def test_nonfinite_evaluator_fails_at_boundary(self):
        # NaN for x > 0.5 raises the package error on first evaluation,
        # not a scipy ValueError inside the LP
        f = FuncRep(lambda x: np.where(x > 0.5, np.nan, x), name="nan_right")
        with pytest.raises(DomainError, match="nan"):
            best_l1(f, 5)

    def test_non_vectorized_evaluator_rejected(self):
        x = np.array([0.1, 0.2])
        with pytest.raises(DomainError, match="vectorized"):
            FuncRep(math.sin).eval(x)
        with pytest.raises(DomainError, match="vectorized"):
            FuncRep(lambda t: 1.0).eval(x)

    def test_corruption_measure_is_interval_sum(self):
        corr = Corruption(intervals=((-0.5, -0.2), (0.1, 0.4)))
        assert corr.measure == pytest.approx(0.6)
        assert corr.zeta == pytest.approx(0.5)

    def test_derivative_access(self):
        f = catalog_function("expsin10")
        x = np.array([-0.3, 0.2, 0.7])
        expect = np.exp(x) * (np.sin(10 * x) + 10 * np.cos(10 * x))
        assert f.derivative(x) == pytest.approx(expect, rel=1e-9)


class TestKinkRootfinding:
    """funcrep_from_expression skips a kink only when rootfinding runs out of
    budget; any other failure is a fault and propagates."""

    def test_budget_exhausted_kink_is_skipped(self, monkeypatch):
        def exhausted(fn, *args, **kwargs):
            raise SubdivisionLimit("rootfinding exceeded 4096 subintervals")

        monkeypatch.setattr(catalog, "roots_in_interval", exhausted)
        f = funcrep_from_expression("abs(x-0.25)")
        assert f.breakpoints == ()
        assert f.eval(np.array([0.5]))[0] == pytest.approx(0.25)

    def test_other_errors_propagate(self, monkeypatch):
        def broken(fn, *args, **kwargs):
            raise ZeroDivisionError("fault inside rootfinding")

        monkeypatch.setattr(catalog, "roots_in_interval", broken)
        with pytest.raises(ZeroDivisionError, match="fault inside rootfinding"):
            funcrep_from_expression("abs(x-0.25)")
