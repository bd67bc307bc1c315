"""Grid construction, series arithmetic, interpolation, and segment integrals."""

import numpy as np
import pytest

from l1rec.chebyshev import (
    VANDERMONDE_MAX_ENTRIES,
    Basis,
    ChebSeries,
    build_grid,
    chebvander_second,
    differentiate,
    extrema_values,
    first_to_second,
    gap_integrals,
    gap_moments,
    gap_values,
    interpolate_on_grid,
    second_to_first,
    secondkind_segment_integrals,
)
from l1rec.errors import TooLarge
from l1rec.funcrep import FuncRep, Residual

EPS = np.finfo(float).eps


def u_series(coeffs):
    return ChebSeries(Basis.SECOND, coeffs)


def t_series(coeffs):
    return ChebSeries(Basis.FIRST, coeffs)


class TestBuildGrid:
    def test_n0(self):
        g = build_grid(0)
        assert g.points == pytest.approx([0.0], abs=0)
        assert g.weights == pytest.approx([np.pi / 2], rel=1e-15)

    def test_n1(self):
        g = build_grid(1)
        assert g.points == pytest.approx([-0.5, 0.5], rel=1e-15)
        assert g.weights == pytest.approx([np.pi * np.sqrt(3) / 6] * 2, rel=1e-14)

    def test_n3_cosine_formula(self):
        g = build_grid(3)
        assert g.points[0] == pytest.approx(np.cos(4 * np.pi / 5), rel=1e-15)
        assert g.points[0] == pytest.approx(-0.809017, abs=1e-6)

    @pytest.mark.parametrize("N", [0, 1, 2, 5, 17, 64])
    def test_invariants(self, N):
        g = build_grid(N)
        j = np.arange(N + 1)
        explicit = np.cos((N + 1 - j) * np.pi / (N + 2))
        assert np.max(np.abs(g.points - explicit)) < 1e-15
        assert np.all(np.diff(g.points) > 0)
        assert np.all(g.weights > 0)
        # exact symmetry in floating point
        assert np.all(g.points == -g.points[::-1])
        assert np.all(g.weights == g.weights[::-1])

    @pytest.mark.parametrize("N", [1, 4, 9, 30])
    def test_gauss_exactness(self, N):
        # applying the weights to g(x)*sqrt(1-x^2) reproduces
        # int g(x) sqrt(1-x^2) dx for deg g <= 2N+1; in the T basis,
        # int T_k sqrt(1-x^2) = pi/2 (k=0), -pi/4 (k=2), 0 otherwise.
        g = build_grid(N)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(2 * N + 2)
        p = t_series(coeffs)
        exact = coeffs[0] * np.pi / 2
        if len(coeffs) > 2:
            exact -= coeffs[2] * np.pi / 4
        quad = float(np.dot(g.weights, p(g.points) * g.sines))
        assert quad == pytest.approx(exact, rel=1e-12, abs=1e-13)


class TestEval:
    def test_t5_at_1(self):
        assert t_series([0, 0, 0, 0, 0, 1.0])(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_u1(self):
        assert u_series([0, 1.0])(0.3) == pytest.approx(0.6, abs=1e-15)

    def test_u2(self):
        assert u_series([0, 0, 1.0])(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_matches_numpy_first_kind(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(30)
        x = rng.uniform(-1, 1, 100)
        mine = t_series(c)(x)
        ref = np.polynomial.chebyshev.chebval(x, c)
        assert np.max(np.abs(mine - ref)) < 1e-13 * np.max(np.abs(c))


class TestBasisConversion:
    def test_t1_is_half_u1(self):
        assert first_to_second([0.0, 1.0]) == pytest.approx([0.0, 0.5])

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n = rng.integers(0, 101)
            a = rng.standard_normal(n + 1)
            back = second_to_first(first_to_second(a))
            assert np.max(np.abs(back - a)) <= 1e-13 * np.max(np.abs(a))

    def test_conversion_preserves_values(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(40)
        s = u_series(c)
        x = rng.uniform(-1, 1, 64)
        assert s.to_basis(Basis.FIRST)(x) == pytest.approx(s(x), abs=1e-11)


class TestInterpolation:
    def test_reproduces_u3(self):
        s = interpolate_on_grid(u_series([0, 0, 0, 1.0]), 3)
        assert s.coeffs == pytest.approx([0, 0, 0, 1.0], abs=1e-14)

    def test_constant(self):
        s = interpolate_on_grid(lambda x: np.ones_like(x), 2)
        assert s.coeffs == pytest.approx([1.0, 0, 0], abs=1e-14)

    def test_absx_degree2(self):
        # interpolation of |x| at {-sqrt2/2, 0, sqrt2/2} is sqrt(2) x^2,
        # i.e. U coefficients (sqrt2/4, 0, sqrt2/4)
        s = interpolate_on_grid(np.abs, 2)
        r2 = np.sqrt(2.0)
        assert s.coeffs == pytest.approx([r2 / 4, 0.0, r2 / 4], abs=1e-14)

    @pytest.mark.parametrize(
        "seed, n",
        [(seed, None) for seed in range(5)] + [(5, 1000), (6, 4097)],
        ids=[str(seed) for seed in range(5)] + ["n1000", "n4097"],
    )
    def test_polynomial_reproduction(self, seed, n):
        # n = 1000 and 4097 give an odd and an even DST-I length (n + 1)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 40)) if n is None else n
        c = rng.standard_normal(n + 1)
        s = interpolate_on_grid(u_series(c), n)
        # the Clenshaw evaluation of the input series carries ~n eps max|c|
        # of rounding, which bounds the recovered coefficients at high degree
        tol = max(1e-13, 1e-15 * n)
        assert np.max(np.abs(s.coeffs - c)) <= tol * np.max(np.abs(c))

    def test_matches_values_on_grid(self):
        f = lambda x: np.exp(x) * np.sin(3 * x)
        n = 21
        s = interpolate_on_grid(f, n)
        g = build_grid(n)
        scale = np.max(np.abs(f(g.points)))
        assert np.max(np.abs(s(g.points) - f(g.points))) <= 1e-13 * scale


class TestDifferentiate:
    def test_t2(self):
        d = differentiate(t_series([0, 0, 1.0]))
        assert d.basis is Basis.SECOND
        assert d.coeffs == pytest.approx([0.0, 2.0])  # 4x = 2 U_1

    def test_constant(self):
        d = differentiate(u_series([3.0]))
        assert d.coeffs == pytest.approx([0.0])

    def test_t5_is_5_u4(self):
        d = differentiate(t_series([0, 0, 0, 0, 0, 1.0]))
        assert d.coeffs == pytest.approx([0, 0, 0, 0, 5.0], abs=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(25):
            n = int(rng.integers(0, 51))
            basis = Basis.FIRST if rng.integers(2) else Basis.SECOND
            s = ChebSeries(basis, rng.standard_normal(n + 1))
            d = differentiate(s)
            # interior sample: the h^2 p''' truncation error of central
            # differences grows like (1-x^2)^(-3/2) toward the endpoints
            x = rng.uniform(-0.7, 0.7, 20)
            h = 1e-6
            fd = (s(x + h) - s(x - h)) / (2 * h)
            assert np.max(np.abs(d(x) - fd)) <= 1e-7 * max(s.coeff_max, 1.0)


class TestSegmentIntegral:
    def test_j0(self):
        assert secondkind_segment_integrals(0, [-1, 1])[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_j1_odd(self):
        assert secondkind_segment_integrals(1, [-1, 1])[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_j2_half(self):
        assert secondkind_segment_integrals(2, [0, 1])[2, 0] == pytest.approx(1 / 3, rel=1e-14)

    def test_series_integrate_matches(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(12)
        s = u_series(c)
        a, b = -0.3, 0.8
        # independent route: numpy's first-kind antiderivative
        F = np.polynomial.chebyshev.chebint(s.to_basis(Basis.FIRST).coeffs)
        expect = np.polynomial.chebyshev.chebval(b, F) - np.polynomial.chebyshev.chebval(a, F)
        assert s.integrate(a, b) == pytest.approx(expect, rel=1e-13)


def gap_bounds(m):
    """-1, the nodes of build_grid(m-2), 1: the bounds of the m gaps."""
    return np.concatenate([[-1.0], build_grid(m - 2).points, [1.0]])


def longdouble_gap_table(n, m):
    """integral of U_j over each gap between the exact nodes cos(k pi/m),
    by differencing T_{j+1}/(j+1) in extended precision."""
    pi = np.arccos(np.longdouble(-1.0))
    theta = pi * (m - np.arange(m + 1, dtype=np.longdouble)) / m
    j = np.arange(1, n + 2, dtype=np.longdouble)[:, None]
    T = np.cos(j * theta[None, :])
    return (T[:, 1:] - T[:, :-1]) / j


def longdouble_clenshaw_second(c, x):
    c = np.asarray(c, dtype=np.longdouble)
    x = np.asarray(x, dtype=np.longdouble)
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for ck in c[:0:-1]:
        b1, b2 = ck + 2 * x * b1 - b2, b1
    return c[0] + 2 * x * b1 - b2


class TestGapTransforms:
    """mu and the segment integrals of the shortcut by sine transforms, and
    p at theta-uniform gap samples by one DCT-I."""

    @pytest.mark.parametrize("n", [0, 1, 2, 10, 300, 2560])
    @pytest.mark.parametrize("extra", [2, 3])  # m = n+2 (phase 1), n+3 (phase 2)
    def test_match_the_table(self, n, extra):
        m = n + extra
        rng = np.random.default_rng(n + extra)
        signs = rng.choice([-1.0, 1.0], m)
        c = rng.standard_normal(n + 1)
        table = secondkind_segment_integrals(n, gap_bounds(m))
        # the table integrates between the rounded bounds: each of the m+1
        # moves an integral of U_j by at most (n+1) eps, of p by sum (j+1)|c_j| eps
        j = np.arange(1, n + 2)
        assert np.max(np.abs(gap_moments(signs, n) - table @ signs)) <= (m + 1) * (n + 1) * EPS
        assert np.max(np.abs(gap_integrals(c, m) - c @ table)) <= (m + 1) * np.sum(j * np.abs(c)) * EPS

    @pytest.mark.parametrize("n", [0, 1, 2, 10, 300])
    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_exact_nodes_to_rounding(self, n, extra):
        m = n + extra
        rng = np.random.default_rng(100 + n)
        signs = rng.choice([-1.0, 1.0], m)
        c = rng.standard_normal(n + 1)
        ref = longdouble_gap_table(n, m)
        mu = (ref @ signs.astype(np.longdouble)).astype(float)
        integrals = (c.astype(np.longdouble) @ ref).astype(float)
        assert np.max(np.abs(gap_moments(signs, n) - mu)) <= 16 * EPS
        assert np.max(np.abs(gap_integrals(c, m) - integrals)) <= 16 * EPS * np.max(np.abs(c))

    def test_sizes_checked(self):
        with pytest.raises(ValueError):
            gap_moments(np.ones(3), 3)
        with pytest.raises(ValueError):
            gap_integrals(np.ones(4), 3)

    @pytest.mark.parametrize("n", [0, 1, 10, 300, 2560])
    @pytest.mark.parametrize("decay", [0, 2])
    def test_values_within_their_noise_bound(self, n, decay):
        rng = np.random.default_rng(7 * n + decay)
        p = ChebSeries(Basis.SECOND, rng.standard_normal(n + 1) / np.arange(1, n + 2) ** decay)
        m = n + 2
        x, vals, noise = gap_values(p, m, 8)
        assert x.shape == vals.shape == (m, 8)
        bounds = gap_bounds(m)
        assert np.all(np.diff(x.ravel()) > 0)
        assert np.all((x > bounds[:-1, None]) & (x < bounds[1:, None]))
        ref = longdouble_clenshaw_second(p.coeffs, x).astype(float)
        assert np.max(np.abs(vals - ref)) <= noise

    def test_values_of_the_absx_interpolant(self):
        # the series the shortcut certifies at high degree, within the
        # threshold best_l1 uses to discard residual samples
        n = 5120
        q = interpolate_on_grid(np.abs, n + 1)
        p = ChebSeries(Basis.SECOND, q.coeffs[: n + 1])
        x, vals, noise = gap_values(p, n + 3, 8)
        rows = slice(None, None, 16)  # every 16th gap keeps the reference cheap
        ref = longdouble_clenshaw_second(p.coeffs, x[rows]).astype(float)
        assert np.max(np.abs(vals[rows] - ref)) <= noise < 1e-11


class TestExtremaValues:
    """A series at cos(k pi/M), k = 0..M, by one DCT-I, folded mod 2M when
    its degree exceeds M: how Residual.scale evaluates p."""

    @pytest.mark.parametrize("n", [0, 3, 7, 8, 9, 16, 17, 37])
    def test_exact_points_with_folding(self, n):
        M = 8
        rng = np.random.default_rng(n)
        p = u_series(rng.standard_normal(n + 1))
        a = p.to_basis(Basis.FIRST).coeffs
        pi = np.arccos(np.longdouble(-1.0))
        x = np.cos(pi * np.arange(M + 1, dtype=np.longdouble) / M)
        ref = longdouble_clenshaw_second(p.coeffs, x).astype(float)
        assert np.max(np.abs(extrema_values(a, M) - ref)) <= 16 * EPS * np.sum(np.abs(a))

    @pytest.mark.parametrize("n", [5, 2047, 2048, 2049, 5120])
    def test_residual_scale_within_eval_noise(self, n):
        # the interpolant of |x - 1/4| (asymmetric, so it has odd and even
        # terms and a wrong fold past degree 2048 would show), as the
        # shortcut's negligible test sees it:
        # p at the 2049 sample points of Residual.scale, and the scale
        # itself, against a long-double Clenshaw at the same points
        g = lambda x: np.abs(x - 0.25)
        f = FuncRep(g, breakpoints=[0.25])
        p = interpolate_on_grid(g, n)
        res = Residual(f, p)
        x = np.cos(np.linspace(0.0, np.pi, 2049))
        ref = longdouble_clenshaw_second(p.coeffs, x)
        vals = extrema_values(p.to_basis(Basis.FIRST).coeffs, 2048)
        assert np.max(np.abs(vals - ref.astype(float))) <= res.eval_noise
        direct = np.array([-1.0, 0.25 - 1e-9, 0.25, 0.25 + 1e-9, 1.0])
        e = np.concatenate([f(x) - ref, f(direct) - longdouble_clenshaw_second(p.coeffs, direct)])
        assert abs(res.scale - float(np.max(np.abs(e)))) <= res.eval_noise


class TestVandermondeGuard:
    def test_within_the_guard(self):
        V = chebvander_second([0.5], 3)
        assert V[0] == pytest.approx([1.0, 1.0, 0.0, -1.0], abs=1e-15)

    def test_too_large_raises_before_allocating(self):
        # two points at this degree would need 2^26 + 2 entries (512 MiB)
        with pytest.raises(TooLarge, match="Vandermonde"):
            chebvander_second([0.0, 0.5], VANDERMONDE_MAX_ENTRIES // 2)
