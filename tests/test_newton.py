"""The best-L1 pipeline: trials, LP init, mesh refinement, Newton iteration.

Each stage is exercised through the function the pipeline calls: the
certified interpolant through best_l1, the LP start through
recover_l1(...).recovered, and the optimality integrals through
make_state(...).mu. The shortcut's gap-sign test is also called on its own
(_gap_signs), to show which residuals it accepts and rejects. The LPs of
the pipeline are observed by recording every call of lp.solve.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize

from l1rec import lp, newton, recovery
from l1rec.catalog import corrupted, resolve_function
from l1rec.chebyshev import Basis, ChebSeries
from l1rec.errors import StepFailure
from l1rec.funcrep import Corruption, FuncRep, Residual
from l1rec.newton import (
    Path,
    _gap_signs,
    best_l1,
    make_state,
    near_best_factor,
    newton_step,
    refine_mesh,
)
from l1rec.recovery import default_grid_size, recover_l1


def u_series(c):
    return ChebSeries(Basis.SECOND, c)


def t_basis(deg):
    c = np.zeros(deg + 1)
    c[deg] = 1.0
    return ChebSeries(Basis.FIRST, c)


def absx():
    return FuncRep(np.abs, breakpoints=[0.0], name="absx")


def corrupted_u4_case():
    """(f, n): a degree-4 polynomial plus 4 on [0.2, 0.23]."""
    p = u_series([0.7, -0.2, 0.5, 0.0, 1.0])
    corr = Corruption(intervals=((0.2, 0.23),), clean=p)
    return corrupted(p, lambda x: np.full_like(x, 4.0), corr, "cp"), 4


def quad_l1(f, p, points=()):
    fn = lambda x: abs(f(x) - p(np.array([x]))[0])
    val, _ = quad(fn, -1, 1, points=sorted(set([0.0, *points])), limit=300)
    return val


class TestTrialInterpolant:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_t_nplus1(self, n):
        f = FuncRep(t_basis(n + 1), name="T")
        out = best_l1(f, n)
        assert out.path is Path.INTERPOLANT_SHORTCUT
        assert out.l1_error > 0.0  # certified by its sign pattern
        p = out.polynomial
        # T_{n+1} = (U_{n+1} - U_{n-1})/2, so the interpolant is -U_{n-1}/2
        expect = np.zeros(n + 1)
        expect[n - 1] = -0.5
        assert p.coeffs == pytest.approx(expect, abs=1e-13)

    def test_polynomial_zero_residual(self):
        # no sign pattern certifies a polynomial: its interpolant is returned
        # on the strength of a numerically zero residual
        f = FuncRep(u_series([0.3, 0.2, 1.0]), name="p")
        out = best_l1(f, 4)
        assert out.path is Path.INTERPOLANT_SHORTCUT
        assert out.trace == [(0, 0.0, 0.0)]
        assert out.l1_error == 0.0

    def test_sqrt_even_degree(self):
        f = FuncRep(lambda x: np.sqrt(np.maximum(0.0, 1 - x * x)), name="sqrt")
        out = best_l1(f, 4)
        assert out.path is Path.INTERPOLANT_SHORTCUT
        p = out.polynomial
        assert p.degree <= 4
        # certified optimal: all optimality integrals vanish
        assert np.max(np.abs(make_state(f, p, n=4).mu)) < 1e-10

    def test_sqrt_odd_degree(self):
        f = FuncRep(lambda x: np.sqrt(np.maximum(0.0, 1 - x * x)), name="sqrt")
        out = best_l1(f, 5)
        assert out.path is Path.INTERPOLANT_SHORTCUT
        assert np.max(np.abs(make_state(f, out.polynomial, n=5).mu)) < 1e-10

    def test_absx_quadratic_true_optimum(self):
        # |x| with n=2: the 3-node interpolant sqrt(2)x^2 only touches zero at
        # x=0, so it is not optimal; the certified optimum interpolates at the
        # four U_4 roots: p* = sqrt(5)/10 + (2/sqrt(5)) x^2
        f = absx()
        out = best_l1(f, 2)
        assert out.path is Path.INTERPOLANT_SHORTCUT
        expect = [1.0 / np.sqrt(5.0), 0.0, np.sqrt(5.0) / 10.0]
        assert out.polynomial.coeffs == pytest.approx(expect, abs=1e-12)


class TestLpInitialize:
    def test_polynomial_exact(self):
        c = np.array([0.2, -0.5, 0.0, 1.4])
        f = FuncRep(u_series(c), name="p")
        p = recover_l1(f, 3, N=500).recovered
        assert p.coeffs == pytest.approx(c, abs=1e-10)

    def test_absx_close_to_optimum(self):
        f = absx()
        p = recover_l1(f, 2).recovered
        expect = np.array([1.0 / np.sqrt(5.0), 0.0, np.sqrt(5.0) / 10.0])
        assert np.max(np.abs(p.coeffs - expect)) < 1e-3


class TestRefineMesh:
    def test_no_roots_uniform(self):
        pts, wts = refine_mesh([], 100)
        assert len(pts) == 100
        assert wts == pytest.approx(np.full(100, 0.02))
        assert np.sum(wts) == pytest.approx(2.0, abs=1e-12)

    def test_single_root(self):
        pts, wts = refine_mesh([0.0], 100)
        inside = np.abs(pts) <= 0.04
        assert abs(np.count_nonzero(inside) - 50) <= 2
        assert wts[inside][0] == pytest.approx(1.6e-3, rel=1e-12)
        assert np.sum(wts) == pytest.approx(2.0, abs=1e-12)

    def test_overlapping_roots_merge(self):
        pts, wts = refine_mesh([0.0, 0.01, 0.95], 200)
        assert np.sum(wts) == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.diff(pts) > 0)

    def test_weights_match_cells(self):
        pts, wts = refine_mesh([-0.5, 0.3], 150)
        assert np.sum(wts) == pytest.approx(2.0, abs=1e-12)


class TestComputeMu:
    def test_odd_identity(self):
        # f(x) = x, c = 0: mu_0 = int sign(x) dx = 0
        f = FuncRep(lambda x: np.asarray(x, float), name="x")
        mu = make_state(f, u_series([0.0]), n=0).mu
        assert mu == pytest.approx([0.0], abs=1e-13)

    def test_matches_adaptive_quadrature(self):
        f = FuncRep(lambda x: np.exp(x) * np.sin(3 * x), name="es")
        c = u_series([0.1, 0.4, -0.2])
        res = Residual(f, c)
        mu = make_state(f, c, n=2).mu
        for j, uj in enumerate(
            [lambda x: 1.0, lambda x: 2 * x, lambda x: 4 * x * x - 1.0]
        ):
            val, _ = quad(
                lambda x: np.sign(res(np.array([x]))[0]) * uj(x),
                -1,
                1,
                points=list(res.sign_change_roots),
                limit=200,
            )
            assert mu[j] == pytest.approx(val, abs=1e-10)

    def test_zero_at_optimum(self):
        f = absx()
        p = best_l1(f, 2).polynomial
        assert np.max(np.abs(make_state(f, p, n=2).mu)) < 1e-12

    def test_touching_root_at_a_segment_midpoint(self):
        # e = x^2 (x^2 - 1/4) changes sign at +-1/2 and touches zero at 0,
        # the midpoint of [-1/2, 1/2]: that segment's sign is -1, not 0, so
        # mu = (int_{|x|>1/2} U_j - int_{|x|<1/2} U_j)_j = (0, 0, 2)
        f = FuncRep(lambda x: x**2 * (x**2 - 0.25), name="touch")
        c = u_series([0.0, 0.0, 0.0])
        bounds, signs = Residual(f, c).sign_segments()
        assert bounds == pytest.approx([-1.0, -0.5, 0.5, 1.0], abs=1e-14)
        assert list(signs) == [1.0, -1.0, 1.0]
        assert make_state(f, c).mu == pytest.approx([0.0, 0.0, 2.0], abs=1e-13)


class TestNewtonStep:
    def test_fixed_point_at_optimum(self):
        f = absx()
        p = best_l1(f, 2).polynomial
        state = make_state(f, p, n=2)
        new = newton_step(state, f)
        assert np.max(np.abs(new.coeffs.coeffs - p.coeffs)) < 1e-10

    def test_quadratic_optimality_decrease(self):
        f = absx()
        p = recover_l1(f, 2).recovered
        state = make_state(f, p, n=2)
        opts = [state.optimality]
        for _ in range(6):
            state = newton_step(state, f)
            opts.append(state.optimality)
            if state.optimality < 1e-13:
                break
        # once inside the basin, o_{k+1} <= C o_k^2
        seen = False
        for a, b in zip(opts[:-1], opts[1:]):
            if 1e-10 < a < 1e-3:
                assert b <= max(100.0 * a * a, 5e-14)
                seen = True
        assert seen
        assert opts[-1] < 1e-12

    def test_identity_fallback_on_flat_root(self):
        # f touching zero at a root of the residual: e'(r) = 0 triggers H = I
        f = FuncRep(lambda x: np.asarray(x, float) ** 2, name="x2")
        state = make_state(f, u_series([0.0]), n=0)
        assert state.roots.size == 0  # x^2 >= 0: no sign change
        new = newton_step(state, f)
        assert new.used_identity
        assert new.objective <= state.objective + 1e-12

    def test_identity_fallback_on_injected_flat_root(self):
        # synthetically zero out one residual slope: the H = I guard must
        # engage and the (halved) step must not increase the objective
        import dataclasses

        f = absx()
        state = make_state(f, recover_l1(f, 2).recovered, n=2)
        assert state.roots.size >= 2
        flattened = state.eprime.copy()
        flattened[0] = 0.0
        state = dataclasses.replace(state, eprime=flattened)
        new = newton_step(state, f)
        assert new.used_identity
        assert new.objective <= state.objective + 1e-12 * f.l1_norm


class TestNearBestFactor:
    def test_zero_mu(self):
        assert near_best_factor(np.zeros(3), 2) == pytest.approx(1.0)

    def test_half_load(self):
        assert near_best_factor(np.array([np.pi / 16]), 0) == pytest.approx(2.0)

    def test_vacuous(self):
        assert near_best_factor(np.array([np.pi / 50]), 3) is None


class TestBestL1:
    def test_t6_shortcut(self):
        f = FuncRep(t_basis(6), name="T6")
        out = best_l1(f, 5)
        assert out.path is Path.INTERPOLANT_SHORTCUT
        expect = np.zeros(6)
        expect[4] = -0.5
        assert out.polynomial.coeffs == pytest.approx(expect, abs=1e-13)
        assert np.max(np.abs(out.mu)) < 1e-12

    def test_absx_n2(self):
        # independent oracle: brute-force minimization over even quadratics
        fn = lambda ab: quad(
            lambda x: abs(abs(x) - ab[0] - ab[1] * x * x), -1, 1, points=[0], limit=200
        )[0]
        brute = minimize(fn, x0=[0.2, 0.9], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14})
        f = absx()
        out = best_l1(f, 2)
        assert out.l1_error == pytest.approx(brute.fun, abs=1e-8)
        assert out.l1_error == pytest.approx((np.sqrt(5.0) - 2.0) / 2.0, abs=1e-11)
        p = out.polynomial
        # Nelder-Mead lands within ~1e-5 of the optimum on this flat objective
        assert p(np.array([0.0]))[0] == pytest.approx(brute.x[0], abs=2e-5)

    def test_corrupted_polynomial_path(self):
        f, n = corrupted_u4_case()
        out = best_l1(f, n)
        assert out.path is Path.CORRUPTED_POLYNOMIAL
        assert np.max(np.abs(out.polynomial.coeffs - f.corruption.clean.coeffs)) < 1e-10
        assert out.near_best_factor is None

    def test_exact_polynomial_short_path(self):
        p = u_series([0.1, 0.2, 0.3])
        out = best_l1(FuncRep(p, name="poly"), 4)
        assert out.path is Path.INTERPOLANT_SHORTCUT
        assert out.l1_error == 0.0
        assert out.near_best_factor == 1.0
        assert np.array_equal(out.mu, np.zeros(5))
        pad = np.zeros(5)
        pad[:3] = [0.1, 0.2, 0.3]
        assert out.polynomial.coeffs == pytest.approx(pad, abs=1e-10)

    def test_newton_path_smooth(self):
        f = FuncRep(lambda x: np.exp(x) * np.sin(10 * x), name="es10")
        out = best_l1(f, 10)
        assert out.path is Path.NEWTON_CONVERGED
        assert np.max(np.abs(out.mu)) < out.stopping_tol
        # trace objectives non-increasing up to the halving slack
        objs = [t[1] for t in out.trace]
        slack = 2e-14 * f.l1_norm
        assert all(b <= a + slack for a, b in zip(objs[:-1], objs[1:]))

    def test_path_consistency_forced_newton(self):
        f = FuncRep(lambda x: np.sqrt(np.maximum(0.0, 1 - x * x)), name="sqrt")
        short = best_l1(f, 4)
        forced = best_l1(f, 4, force_newton=True)
        assert short.path is Path.INTERPOLANT_SHORTCUT
        assert forced.path is Path.NEWTON_CONVERGED
        diff = short.polynomial - forced.polynomial
        from l1rec.funcrep import norm

        assert norm(diff, "L1") < 1e-10

    @pytest.mark.parametrize("n", [9, 24, 40])
    def test_near_best_certificate_absx14(self, n):
        # every trace iterate with a defined factor bounds its objective
        # against the final error
        f = FuncRep(lambda x: np.abs(np.asarray(x, float) - 0.25), breakpoints=[0.25])
        out = best_l1(f, n)
        assert out.path is Path.NEWTON_CONVERGED
        for _, objective, optimality in out.trace:
            factor = near_best_factor(np.array([optimality]), n)
            if factor is not None:
                assert objective <= factor * out.l1_error + 1e-12

    def test_perturbation_optimality(self):
        f = absx()
        out = best_l1(f, 3)
        base = out.l1_error
        for j in range(4):
            for s in (+1.0, -1.0):
                c = out.polynomial.coeffs.copy()
                c[j] += s * 1e-6
                pert = quad_l1(f.eval, u_series(c), points=out.polynomial.coeffs[:1])
                assert pert >= base - 1e-12


class TestShortcutCertificate:
    """The sign test of the certified interpolant, and its memory."""

    N = 4
    GAP_CENTER = np.cos(3.5 * np.pi / 6)  # middle of gap [cos(4pi/6), cos(3pi/6)], m = N+2

    def u5(self):
        return u_series([0.0] * (self.N + 1) + [1.0])

    def planted(self, x):
        # U_5 times a factor that flips sign inside one gap only: f still
        # vanishes at every node, so its interpolant is 0 and the residual
        # is f, with two extra sign changes inside that gap
        x = np.asarray(x, dtype=float)
        return self.u5()(x) * (1.0 - 2.0 * np.exp(-(((x - self.GAP_CENTER) / 0.08) ** 2)))

    def test_alternating_residual_certifies(self):
        f = FuncRep(self.u5(), name="U5")
        signs = _gap_signs(Residual(f, u_series(np.zeros(self.N + 1))), self.N + 2)
        assert signs is not None and np.all(signs[:-1] * signs[1:] < 0)
        out = best_l1(f, self.N)
        assert out.path is Path.INTERPOLANT_SHORTCUT
        assert out.l1_error == pytest.approx(2.0, rel=1e-14)  # integral |U_m| = 2

    def test_planted_sign_change_is_rejected(self):
        f = FuncRep(self.planted, name="planted")
        assert _gap_signs(Residual(f, u_series(np.zeros(self.N + 1))), self.N + 2) is None
        out = best_l1(f, self.N)
        assert out.path is not Path.INTERPOLANT_SHORTCUT

    def test_no_quadratic_table(self):
        # the (n+1) x (n+3) segment table alone would be 210 MB at n = 5120
        f = absx()
        tracemalloc.start()
        try:
            out = best_l1(f, 5120)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.path is Path.INTERPOLANT_SHORTCUT
        assert peak < 32 * 2**20


@pytest.fixture
def lp_calls(monkeypatch):
    """Every (problem, solution) that lp.solve returns, in call order."""
    calls = []

    def recording(problem):
        solution = lp.solve(problem)
        calls.append((problem, solution))
        return solution

    monkeypatch.setattr(newton, "solve", recording)
    monkeypatch.setattr(recovery, "solve", recording)
    return calls


def corrupted_draws(count: int, seed: int):
    """Criterion-3-style corrupted polynomials as FuncReps: a random clean
    polynomial of degree n <= 10, plus a smooth corruption of 1 to 1e3 times
    its sup norm on 1-3 intervals of total measure 0.9/(n+1)^2."""
    rng = np.random.default_rng(seed)
    xg = np.linspace(-1.0, 1.0, 2001)
    draws = []
    for i in range(count):
        n = int(rng.integers(0, 11))
        p = u_series(rng.standard_normal(n + 1))
        sup_p = float(np.max(np.abs(p(xg))))
        s = 0.9 / (n + 1) ** 2
        pieces = int(rng.integers(1, 4))
        parts = rng.dirichlet(np.ones(pieces)) * s
        starts = np.sort(rng.uniform(-1.0, 1.0 - s, pieces))
        intervals, cursor = [], -1.0
        for start, width in zip(starts, parts):
            lo = max(start, cursor + 1e-6)
            intervals.append((lo, lo + width))
            cursor = lo + width
        amp = rng.uniform(1.0, 1e3) * rng.choice([-1.0, 1.0]) * sup_p
        omega = lambda x, amp=amp: amp * (1.0 + 0.5 * np.cos(40.0 * x))
        draws.append((corrupted(p, omega, Corruption(intervals, clean=p), f"draw{i}"), n))
    return draws


# k of each draw of corrupted_draws(40, 3) as the full-grid detector
# certifies it; None where best_l1 raises StepFailure: the corruption is too
# large to certify (measure 0.9 at n = 0, 0.1 at draw 37's n = 2), and
# Newton from the fit finds no descent step, as on legendre8_corrupted
DRAW_K = [
    18, 32, 25, 16, 73, 14, 25, 20, None, 91, 167, 50, 15, 58, 14, None, 18, 31, 22, 40,
    83, 45, 34, None, 146, 117, 48, 14, None, 25, 389, 94, 109, 20, None, 20, 133, None, 24, 21,
]


def strided_size(n: int) -> int:
    """Sample count of the detector's candidate LP: every stride-th sample of
    the default grid, stride = (N+1) // (CANDIDATE_POINTS (n+1))."""
    size = default_grid_size(n) + 1
    stride = size // (recovery.CANDIDATE_POINTS * (n + 1))
    return len(range(stride // 2, size, stride))


class TestLpStart:
    """The start LP runs on 10(n+1) grid points and the refine LP on 20(n+1)
    mesh points. The corrupted-polynomial detector runs only when the start
    fit vanishes on most of its samples: its LP takes every stride-th sample
    of the full default grid, and the full grid only when that fit's refit is
    not exact."""

    @pytest.mark.parametrize(
        "spec, n, parent_l1",
        [
            ("expsin10", 10, 0.2661762357253954),
            ("absx14", 20, 0.004521348450839419),
            ("absx14", 50, 0.0008287935934827585),
            ("abs(sin(30*x))", 10, 0.5191443229707596),
            ("abs(sin(30*x))", 50, 0.3240972020970203),
            ("abs(x-0.3)", 12, 0.010980774506665233),
        ],
    )
    def test_lps_sized_by_degree(self, lp_calls, spec, n, parent_l1):
        # parent_l1: the answer of the pipeline whose LPs ran on
        # max(1000 + 50n, 5000) samples
        f = resolve_function(spec)
        out = best_l1(f, n)
        assert out.path is Path.NEWTON_CONVERGED
        sizes = [len(problem.points) for problem, _ in lp_calls]
        assert len(sizes) == 2 and sizes[0] == 10 * (n + 1)  # start, then refine
        assert max(sizes) <= 25 * (n + 1)
        assert abs(out.l1_error - parent_l1) <= max(1e-10 * parent_l1, 1e-14 * f.l1_norm)
        assert out.near_best_factor is not None
        problem, start = lp_calls[-1]  # the refine LP, whose fit starts Newton
        assert out.duality_gap == start.duality_gap
        assert out.duality_gap <= 1e-8 * max(start.objective, problem.scale)

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (resolve_function("corrupted_t5"), 5),
            corrupted_u4_case,
        ],
        ids=["corrupted_t5", "corrupted_u4"],
    )
    def test_detector_recovers(self, lp_calls, monkeypatch, case):
        f, n = case()
        out = best_l1(f, n)
        # the start LP, then the strided detector LP; no full-grid LP
        assert [len(problem.points) for problem, _ in lp_calls] == [10 * (n + 1), strided_size(n)]
        problem, detector = lp_calls[1]
        assert out.path is Path.CORRUPTED_POLYNOMIAL
        assert out.report.lp_points == out.lp_points == strided_size(n)
        # the full-grid detector on its own: stride < 2 skips the strided LP
        monkeypatch.setattr(recovery, "CANDIDATE_POINTS", 10**9)
        today = recover_l1(case()[0], n)
        assert today.lp_points == default_grid_size(n) + 1
        assert (out.report.k, out.report.exact) == (today.k, True)
        assert np.array_equal(out.report.recovered.coeffs, today.recovered.coeffs)
        assert out.duality_gap == out.report.duality_gap == detector.duality_gap
        assert out.duality_gap <= 1e-8 * max(detector.objective, problem.scale)

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_detector_keeps_legendre8_failure(self, lp_calls, n):
        # the full-grid fit recovers P_8 but cannot certify it (RIP fails),
        # and Newton from its residual, which vanishes on most of [-1, 1],
        # finds no descent step: the same StepFailure as the fixed-size
        # pipeline gave. The strided fit is not exact either, so the
        # detector falls back to the full grid.
        with pytest.raises(StepFailure):
            best_l1(resolve_function("legendre8_corrupted"), n)
        sizes = [len(problem.points) for problem, _ in lp_calls]
        assert sizes[1:3] == [strided_size(n), default_grid_size(n) + 1]
        # the refine LP is sized by degree on this path too
        assert len(sizes) == 4 and sizes[3] <= 25 * (n + 1)

    def test_corrupted_draws_keep_their_path(self, lp_calls):
        outcomes = []
        for f, n in corrupted_draws(40, 3):
            lp_calls.clear()
            try:
                out = best_l1(f, n)
            except StepFailure:
                outcomes.append(None)
                continue
            assert out.path is Path.CORRUPTED_POLYNOMIAL
            # certified from the strided LP: no full-grid LP ran
            assert [len(problem.points) for problem, _ in lp_calls] == [10 * (n + 1), strided_size(n)]
            outcomes.append(out.report.k)
        assert outcomes == DRAW_K

    def test_no_gap_on_the_shortcut(self, lp_calls):
        out = best_l1(absx(), 8)
        assert out.path is Path.INTERPOLANT_SHORTCUT
        assert out.duality_gap is None and lp_calls == []
