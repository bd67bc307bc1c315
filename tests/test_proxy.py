"""Adaptive proxy fitting: tail-test convergence, breakpoints, splitting.

A proxy is always a PiecewiseCheb; a target that resolves on [-1, 1] by
degree 128 gives a single piece.
"""

import numpy as np
import pytest

from l1rec.catalog import catalog_function
from l1rec.chebyshev import Basis, ChebSeries, interpolant, interpolate_on_grid
from l1rec.proxy import MIN_PIECE_WIDTH, Piece, PiecewiseCheb, adaptive_proxy


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
        mids = 0.5 * (prox.edges[1:] + prox.edges[:-1])
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


def piecewise_reference(prox, x):
    """prox at x, one piece at a time: each point goes to the piece [a, b)
    that holds it (the last piece also takes b)."""
    out = np.empty_like(x)
    last = len(prox.pieces) - 1
    for i, piece in enumerate(prox.pieces):
        inside = (x >= piece.a) & ((x < piece.b) | (i == last))
        out[inside] = piece.series(piece.local(x[inside]))
    return out


class TestStackedPieces:
    """The stacked kernels give bitwise what the per-piece loops gave."""

    @pytest.fixture(scope="class")
    def prox(self):
        prox = catalog_function("sqrt1mx2").proxy
        assert len(prox.pieces) == 150
        return prox

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_call_matches_each_piece(self, prox, order):
        for _ in range(order):
            prox = prox.derivative()
        x = np.concatenate([prox.edges, np.linspace(-1.0, 1.0, 3001)])
        x = np.concatenate([x, 0.5 * (prox.edges[1:] + prox.edges[:-1])])
        assert np.array_equal(prox(x), piecewise_reference(prox, x))
        value = prox(np.float64(0.3))
        assert isinstance(value, float)
        assert value == piecewise_reference(prox, np.array([0.3]))[0]
        assert prox(np.empty(0)).shape == (0,)
        grid = x[: x.size // 2 * 2]
        assert np.array_equal(prox(grid.reshape(2, -1)), prox(grid).reshape(2, -1))

    def test_derivative_matches_each_piece(self, prox):
        for _ in range(2):  # first kind, then the second kind the first returns
            d = prox.derivative()
            assert d.basis is Basis.SECOND
            for piece, dp in zip(prox.pieces, d.pieces):
                ref = piece.series.derivative() * (2.0 / (piece.b - piece.a))
                assert np.array_equal(dp.series.coeffs, ref.coeffs)
                assert (dp.a, dp.b, dp.resolved) == (piece.a, piece.b, piece.resolved)
            prox = d

    @pytest.mark.parametrize("n", [0, 20, 200])
    def test_minus_matches_each_piece(self, prox, n):
        p = interpolate_on_grid(catalog_function("sqrt1mx2"), n)
        diff = prox.minus(p)
        assert diff.basis is Basis.FIRST
        for piece, dp in zip(prox.pieces, diff.pieces):
            mid, half = 0.5 * (piece.a + piece.b), 0.5 * (piece.b - piece.a)
            ref = interpolant(
                lambda t: piece.series(t) - p(mid + half * t),
                max(piece.series.degree, p.degree) + 1,
            )
            assert np.array_equal(dp.series.coeffs, ref.coeffs)
            assert dp.resolved == piece.resolved

    def test_mixed_bases_rejected(self):
        first = ChebSeries(Basis.FIRST, [1.0, 2.0])
        second = ChebSeries(Basis.SECOND, [1.0, 2.0])
        with pytest.raises(ValueError, match="one basis"):
            PiecewiseCheb([Piece(-1.0, 0.0, first), Piece(0.0, 1.0, second)])
