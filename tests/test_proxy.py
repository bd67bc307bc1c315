"""Adaptive proxy fitting: tail-test convergence, breakpoints, splitting.

A proxy is always a PiecewiseCheb; a target that resolves on [-1, 1] by
degree 128 gives a single piece.
"""

import numpy as np
import pytest

from l1rec.catalog import catalog_function
from l1rec.chebyshev import Basis, ChebSeries
from l1rec.proxy import MIN_PIECE_WIDTH, PiecewiseCheb, adaptive_proxy


def single_series(prox) -> ChebSeries:
    """The series of a one-piece proxy on [-1, 1]."""
    assert isinstance(prox, PiecewiseCheb)
    assert len(prox.pieces) == 1
    assert (prox.a, prox.b) == (-1.0, 1.0)
    return prox.pieces[0].series


class TestSingleSeries:
    def test_exp(self):
        s = single_series(adaptive_proxy(np.exp, 1e-14))
        assert 10 <= s.degree <= 24
        x = np.linspace(-1, 1, 1000)
        assert np.max(np.abs(s(x) - np.exp(x))) <= 1e-13

    def test_degree5_polynomial_exact(self):
        p = ChebSeries(Basis.FIRST, [0.3, -1.0, 0.0, 2.0, 0.0, 0.5])
        s = single_series(adaptive_proxy(p, 1e-13))
        assert s.degree <= 6
        x = np.linspace(-1, 1, 200)
        assert np.max(np.abs(s(x) - p(x))) <= 1e-13

    def test_sign_without_hints_leaves_sliver(self):
        # bisection closes in on the jump at 0 and keeps the one piece that
        # straddles it, no wider than MIN_PIECE_WIDTH, as unresolved
        prox = adaptive_proxy(np.sign, 1e-13)
        assert not prox.resolved
        unresolved = [p for p in prox.pieces if not p.resolved]
        assert len(unresolved) == 1
        sliver = unresolved[0]
        assert sliver.a < 0.0 < sliver.b
        assert sliver.b - sliver.a <= MIN_PIECE_WIDTH
        assert len(prox.pieces) == 46
        x = np.linspace(-1, 1, 1001)
        x = x[np.abs(x) > 1e-3]
        assert np.max(np.abs(prox(x) - np.sign(x))) <= 1e-13

    def test_runge(self):
        f = lambda x: 1.0 / (1.0 + 25.0 * x**2)
        s = adaptive_proxy(f, 1e-13)
        x = np.linspace(-1, 1, 500)
        assert np.max(np.abs(s(x) - f(x))) <= 1e-12

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            adaptive_proxy(np.exp, 2.0)


class TestPiecewise:
    def test_absx_with_breakpoint(self):
        prox = adaptive_proxy(np.abs, 1e-13, breakpoints=[0.0])
        assert isinstance(prox, PiecewiseCheb)
        assert len(prox.pieces) == 2
        x = np.linspace(-1, 1, 501)
        assert np.max(np.abs(prox(x) - np.abs(x))) <= 1e-14

    def test_sign_with_breakpoint(self):
        prox = adaptive_proxy(np.sign, 1e-13, breakpoints=[0.0])
        assert prox(0.5) == pytest.approx(1.0, abs=1e-14)
        assert prox(-0.25) == pytest.approx(-1.0, abs=1e-14)

    def test_integrate(self):
        prox = adaptive_proxy(np.abs, 1e-13, breakpoints=[0.0])
        assert prox.integrate(-1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert prox.integrate(-0.5, 0.25) == pytest.approx(0.125 + 0.03125, rel=1e-12)

    def test_derivative(self):
        prox = adaptive_proxy(np.abs, 1e-13, breakpoints=[0.0])
        d = prox.derivative()
        assert d(-0.5) == pytest.approx(-1.0, abs=1e-13)
        assert d(0.75) == pytest.approx(1.0, abs=1e-13)


class TestSplitting:
    def test_sqrt_one_minus_x2(self):
        f = lambda x: np.sqrt(np.maximum(0.0, 1.0 - x * x))
        prox = adaptive_proxy(f, 1e-13)
        assert isinstance(prox, PiecewiseCheb)
        x = np.linspace(-0.999999, 0.999999, 2001)
        assert np.max(np.abs(prox(x) - f(x))) <= 1e-11
        assert prox.integrate(-1.0, 1.0) == pytest.approx(np.pi / 2, rel=1e-10)

    def test_segment_integrals_across_piece_edges(self):
        prox = catalog_function("sqrt1mx2").proxy
        assert len(prox.pieces) == 150
        mids = 0.5 * (prox._edges[1:] + prox._edges[:-1])
        bounds = np.unique(np.concatenate([mids, np.linspace(-1.0, 1.0, 41)]))
        parts = prox.segment_integrals(bounds)
        assert parts.sum() == pytest.approx(prox.integrate(-1.0, 1.0), rel=1e-15)
        F = lambda x: 0.5 * (x * np.sqrt(1.0 - x * x) + np.arcsin(x))
        assert np.max(np.abs(parts - np.diff(F(bounds)))) <= 1e-12

    def test_kink_without_hint(self):
        f = lambda x: np.abs(x - 0.25)
        prox = adaptive_proxy(f, 1e-13)
        x = np.linspace(-1, 1, 801)
        assert np.max(np.abs(prox(x) - f(x))) <= 1e-12
        assert prox.integrate(-1.0, 1.0) == pytest.approx(
            (1.25**2 + 0.75**2) / 2, rel=1e-10
        )
