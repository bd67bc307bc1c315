"""Minimax exchange, Omega_n measurement, case studies, concentration bounds."""

import warnings

import numpy as np
import pytest

from l1rec.chebyshev import Basis, ChebSeries
from l1rec.funcrep import FuncRep, Residual
from l1rec.localization import (
    abs_case,
    concentration_ratio,
    minimax,
    omega_measure,
    sqrt_case,
    sqrt_u_coefficient,
)
from l1rec.rootfind import roots_in_interval


def t_basis(deg):
    c = np.zeros(deg + 1)
    c[deg] = 1.0
    return ChebSeries(Basis.FIRST, c)


def sqrtf():
    return FuncRep(
        lambda x: np.sqrt(np.maximum(0.0, 1.0 - np.asarray(x, float) ** 2)),
        name="sqrt1mx2",
    )


class TestMinimax:
    def test_absx_n1(self):
        out = minimax(FuncRep(np.abs, breakpoints=[0.0]), 1)
        assert out.error == pytest.approx(0.5, rel=1e-8)
        x = np.linspace(-1, 1, 101)
        assert np.max(np.abs(out.polynomial(x) - 0.5)) < 1e-8

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_t_nplus1(self, n):
        out = minimax(FuncRep(t_basis(n + 1), name="T"), n)
        assert out.error == pytest.approx(1.0, rel=1e-9)
        assert np.max(np.abs(out.polynomial.coeffs)) < 1e-8

    def test_polynomial_exact(self):
        p = ChebSeries(Basis.SECOND, [0.4, 1.0, -0.3])
        out = minimax(FuncRep(p, name="p"), 4)
        assert out.error == 0.0
        assert (out.level, out.max_error) == (0.0, 0.0)

    def test_equioscillation(self):
        f = FuncRep(np.exp)
        n = 5
        out = minimax(f, n, tol=1e-10)
        res = Residual(f, out.polynomial)
        cands = np.concatenate(
            [[-1.0, 1.0], roots_in_interval(res.proxy.derivative())]
        )
        vals = res(np.sort(cands))
        big = vals[np.abs(vals) >= out.error * (1 - 1e-7)]
        assert len(big) >= n + 2
        assert np.all(np.sign(big[:-1]) * np.sign(big[1:]) < 0)
        assert np.abs(np.abs(big) - out.error).max() <= 1e-9 * out.error

    def test_absx_larger_degree(self):
        # Bernstein-constant ballpark at a kink: error ~ beta/n
        out = minimax(FuncRep(np.abs, breakpoints=[0.0]), 20, tol=1e-8)
        assert 0.2 / 20 < out.error < 0.4 / 20

    @pytest.mark.parametrize(
        "f, n",
        [
            (FuncRep(np.abs, breakpoints=[0.0], name="absx"), 20),
            (FuncRep(np.exp, name="exp"), 5),
            *[(FuncRep(t_basis(n + 1), name="T"), n) for n in (1, 3, 6)],
            # symmetric targets whose best error equioscillates at n+3 points
            (FuncRep(lambda x: x * np.abs(x), breakpoints=[0.0], name="xabsx"), 21),
            (sqrtf(), 10),
        ],
        ids=["absx-20", "exp-5", "T2-1", "T4-3", "T7-6", "xabsx-21", "sqrt1mx2-10"],
    )
    def test_level_bracket(self, f, n):
        tol = 1e-9
        out = minimax(f, n, tol=tol)
        assert out.polynomial.degree == n
        assert out.level <= out.error <= out.max_error
        assert out.max_error - out.level <= tol * out.max_error

    def test_absx_high_degree_exchange_count(self):
        # a start reference that is not symmetric about 0 keeps the level of
        # even f at even n nonzero from the first exchange on
        out = minimax(FuncRep(np.abs, breakpoints=[0.0], name="absx"), 640, tol=1e-9)
        assert out.iterations <= 8
        assert out.level <= out.error <= out.max_error

    def test_degenerate_bracket_covers_the_cut_coefficient(self):
        # even f, even n, plus a 9e-14 T_21 term that no degree-20
        # polynomial can absorb: the bracket has to hold for the returned
        # degree-n polynomial's residual, measured on a dense grid
        n = 20
        lead = np.zeros(n + 2)
        lead[-1] = 9e-14
        fn = lambda x: np.abs(x) + np.polynomial.chebyshev.chebval(x, lead)
        out = minimax(FuncRep(fn, breakpoints=[0.0]), n)
        assert out.polynomial.degree == n
        x = np.cos(np.linspace(0.0, np.pi, 200001))
        dense = float(np.max(np.abs(fn(x) - out.polynomial(x))))
        assert out.level <= dense <= out.max_error
        assert out.error == 0.5 * (out.level + out.max_error)

    @pytest.mark.parametrize(
        "n, tol",
        [(-1, 1e-9), (2.5, 1e-9), (3.0, 1e-9), (True, 1e-9),
         (4, 0.0), (4, float("nan")), (4, 1.0), (4, -1e-3)],
    )
    def test_rejects_bad_input(self, n, tol):
        f = FuncRep(np.abs, breakpoints=[0.0], name="absx")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                minimax(f, n, tol=tol)

    def test_lockstep_polish_evaluator_calls(self):
        # every polishing step evaluates f once on all sign runs together
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return np.abs(x)

        f = FuncRep(counted, breakpoints=[0.0], name="absx")
        f.proxy, f.value_scale
        calls = 0
        out = minimax(f, 80)
        assert calls <= 70 * out.iterations


class TestOmegaMeasure:
    def test_bound_invariant(self):
        f = FuncRep(lambda x: np.abs(x - 0.25), breakpoints=[0.25], name="a25")
        rep = omega_measure(f, 6)
        assert 0.0 < rep.omega_measure <= rep.omega_bound + 1e-6
        assert rep.omega_measure <= 2.0

    def test_intervals_cover_big_error(self):
        f = FuncRep(np.abs, breakpoints=[0.0], name="absx")
        rep = omega_measure(f, 8)
        assert rep.omega_intervals
        for a, b in rep.omega_intervals:
            assert -1.0 <= a < b <= 1.0


class TestSqrtCase:
    def test_n10_closed_forms(self):
        rep = sqrt_case(10, measured=True)
        assert rep.l1_upper == pytest.approx(64.0 / (1331.0 * np.pi), rel=1e-14)
        assert rep.proj_endpoint == pytest.approx(2.0 / (11.0 * np.pi), rel=1e-14)
        assert rep.measured_l1 <= rep.l1_upper
        assert rep.shortcut_taken

    def test_b_coefficients(self):
        assert sqrt_u_coefficient(4) == pytest.approx(-8.0 / (105.0 * np.pi), rel=1e-14)
        assert sqrt_u_coefficient(0) == pytest.approx(8.0 / (3.0 * np.pi), rel=1e-14)
        assert sqrt_u_coefficient(7) == 0.0
        # verify against direct quadrature of (2/pi) int (1-x^2) U_j
        from scipy.integrate import quad

        for j in (0, 2, 4, 6):
            uj = lambda x, j=j: np.polynomial.chebyshev.chebval(
                x, np.polynomial.chebyshev.poly2cheb([0] * 0 + list(np.polynomial.polynomial.polyfromroots([]))),
            )
        # simpler: evaluate U_j by recurrence
        def u_eval(j, x):
            u0, u1 = np.ones_like(x), 2 * x
            if j == 0:
                return u0
            for _ in range(j - 1):
                u0, u1 = u1, 2 * x * u1 - u0
            return u1

        for j in (0, 2, 4, 6, 9):
            val, _ = quad(lambda x: (1 - x * x) * u_eval(j, np.array([x]))[0], -1, 1)
            assert sqrt_u_coefficient(j) == pytest.approx(2.0 / np.pi * val, abs=1e-12)

    def test_sigma_monotone_and_asymptotic(self):
        import math

        reps = [sqrt_case(n, measured=False) for n in (10, 20, 40, 100, 200)]
        sig = [r.sigma_n for r in reps]
        assert all(b > a for a, b in zip(sig[:-1], sig[1:]))
        # Fourier-Lebesgue-constant asymptotic with its known constant term
        for r in reps[3:]:
            model = 4.0 / np.pi**2 * math.log(r.n) + 1.270353
            assert r.sigma_n == pytest.approx(model, rel=0.02)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            sqrt_case(7)


class TestAbsCase:
    def test_n10_values(self):
        rep = abs_case(10, measured=False)
        assert rep.l1_asymptotic == pytest.approx(np.pi**2 / 400.0, rel=1e-14)
        assert rep.l1_asymptotic == pytest.approx(0.0246740, abs=1e-7)

    def test_n100_bernstein(self):
        # Bernstein: n E_n(|x|) -> beta = 0.28016949..., so E_100 ~ beta / 100
        rep = abs_case(100, measured=False)
        assert rep.bernstein_linf == pytest.approx(0.28017 / 100.0, rel=1e-12)
        assert rep.bernstein_linf == pytest.approx(0.0028017, abs=1e-8)
        assert rep.omega_asymptotic_bound == pytest.approx(
            np.pi**2 / (2.0 * 0.28017 * 100.0), rel=1e-12
        )

    def test_measured_small_n(self):
        rep = abs_case(12, measured=True)
        assert rep.measured_l1 < rep.l1_asymptotic  # finite-n value sits below
        assert rep.measured_linf > 0


class TestConcentration:
    def test_constant(self):
        p = ChebSeries(Basis.SECOND, [1.0])
        rep = concentration_ratio(p, [(-0.1, 0.1)])
        assert rep.ratio == pytest.approx(0.1, rel=1e-12)  # s/2 with s = 0.2
        assert rep.lemma_bound == pytest.approx(0.1, rel=1e-12)

    def test_u20_edge(self):
        c = np.zeros(21)
        c[20] = 1.0
        p = ChebSeries(Basis.SECOND, c)
        rep = concentration_ratio(p, [(0.99, 1.0)])
        assert rep.ratio < 1.0
        assert rep.lemma_bound == pytest.approx(0.01 * 441 / 2, rel=1e-12)
        assert rep.ratio <= rep.lemma_bound + 1e-10

    def test_u20_center_appendix(self):
        c = np.zeros(21)
        c[20] = 1.0
        p = ChebSeries(Basis.SECOND, c)
        rep = concentration_ratio(p, [(-0.005, 0.005)])
        expect = 0.01 * 20**1.5 / (1 - 0.005**2) ** 0.25
        assert rep.centered_bound == pytest.approx(expect, rel=1e-12)
        assert rep.ratio <= rep.centered_bound + 1e-10
        assert rep.ratio < expect / 10  # far below for an oscillatory polynomial

    def test_lemma_random_polys(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            deg = int(rng.integers(0, 21))
            p = ChebSeries(Basis.SECOND, rng.standard_normal(deg + 1))
            k = int(rng.integers(1, 4))
            cuts = np.sort(rng.uniform(-1, 1, 2 * k))
            ivs = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
            rep = concentration_ratio(p, ivs)
            assert rep.ratio <= rep.lemma_bound + 1e-10
            if rep.centered_bound is not None:
                assert rep.ratio <= rep.centered_bound + 1e-10
