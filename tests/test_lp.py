"""Weighted l1-fit LP: optimality, invariants, certificates."""

import numpy as np
import pytest

from l1rec.chebyshev import Basis, ChebSeries, build_grid, chebvander_second
from l1rec.errors import SolverFailure
from l1rec.lp import WeightedL1Fit, solve


def make_problem(points, weights, values, degree):
    return WeightedL1Fit(
        points=np.asarray(points, float),
        weights=np.asarray(weights, float),
        values=np.asarray(values, float),
        degree=degree,
    )


def random_problem(rng, n_max=8, N_max=200):
    n = int(rng.integers(0, n_max + 1))
    N = int(rng.integers(max(n, 2), N_max + 1))
    pts = np.sort(rng.uniform(-1, 1, N + 1))
    while np.any(np.diff(pts) <= 1e-12):
        pts = np.sort(rng.uniform(-1, 1, N + 1))
    w = rng.uniform(0.1, 2.0, N + 1)
    vals = rng.standard_normal(N + 1)
    return make_problem(pts, w, vals, n)


class TestSolve:
    def test_polynomial_values_zero_objective(self):
        rng = np.random.default_rng(1)
        g = build_grid(30)
        c = rng.standard_normal(5)
        p = ChebSeries(Basis.SECOND, c)
        prob = make_problem(g.points, g.weights, p(g.points), 4)
        sol = solve(prob)
        assert sol.objective <= 1e-10 * prob.scale
        assert sol.coefficients.coeffs == pytest.approx(c, abs=1e-9)

    def test_weighted_median(self):
        prob = make_problem([-0.5, 0.0, 0.5], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], 0)
        sol = solve(prob)
        # 1-D brute force: c = weighted median = 0, objective = 1
        grid = np.linspace(-2, 2, 40001)
        objs = np.array([np.sum(np.abs([0, 0, 1] - c)) for c in grid])
        assert objs.min() == pytest.approx(1.0, abs=1e-4)
        assert grid[objs.argmin()] == pytest.approx(0.0, abs=1e-4)
        assert sol.coefficients.coeffs[0] == pytest.approx(0.0, abs=1e-10)
        assert sol.objective == pytest.approx(1.0, rel=1e-12)

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            prob = random_problem(rng, n_max=6, N_max=80)
            sol = solve(prob)
            scale = prob.scale
            r = prob.values - sol.coefficients(prob.points)
            off = np.abs(r) > 1e-9 * scale
            assert sol.objective == pytest.approx(
                float(np.dot(prob.weights, np.abs(r))), rel=1e-12
            )
            assert np.all(np.abs(sol.sigma) <= 1.0)
            assert np.array_equal(sol.sigma[off], np.sign(r[off]))
            assert sol.duality_gap <= 1e-8 * max(sol.objective, scale)
            # stationarity: the subgradient sigma is orthogonal to every U_j
            U = chebvander_second(prob.points, prob.degree)
            stationarity = np.max(np.abs((prob.weights * sol.sigma) @ U))
            assert stationarity <= 1e-8 * np.sum(prob.weights)

    @pytest.mark.parametrize("status", [1, 2, 3, 4])
    def test_nonoptimal_status_raises(self, status, monkeypatch):
        # an iteration limit (status 1) comes back from HiGHS without x or
        # marginals: every status but 0 is a SolverFailure
        from scipy.optimize import OptimizeResult

        stopped = OptimizeResult(
            status=status, message="stopped", x=None, eqlin=OptimizeResult(marginals=None)
        )
        monkeypatch.setattr("l1rec.lp.linprog", lambda *args, **kwargs: stopped)
        with pytest.raises(SolverFailure, match="l1-fit LP failed: stopped"):
            solve(make_problem([0.0, 0.5], [1, 1], [0, 1], 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem([0.0, 0.0], [1, 1], [0, 0], 0)  # not increasing
        with pytest.raises(ValueError):
            make_problem([0.0, 0.5], [1, -1], [0, 0], 0)  # bad weight
        with pytest.raises(ValueError):
            make_problem([0.0, 0.5], [1, 1], [0, 0], 3)  # degree > N


class TestOptimality:
    def test_perturbation_never_improves(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            prob = random_problem(rng)
            sol = solve(prob)
            U = chebvander_second(prob.points, prob.degree)
            base_r = prob.values - U @ sol.coefficients.coeffs
            base = float(np.dot(prob.weights, np.abs(base_r)))
            for j in range(prob.degree + 1):
                for s in (+1.0, -1.0):
                    r = base_r - s * 1e-6 * U[:, j]
                    obj = float(np.dot(prob.weights, np.abs(r)))
                    assert obj >= base - 1e-12 * prob.scale

    def test_scale_equivariance_values(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng, n_max=4, N_max=60)
        sol = solve(prob)
        alpha = 3.7
        scaled = make_problem(prob.points, prob.weights, alpha * prob.values, prob.degree)
        sol2 = solve(scaled)
        assert sol2.objective == pytest.approx(alpha * sol.objective, rel=1e-8)
        assert sol2.coefficients.coeffs == pytest.approx(
            alpha * sol.coefficients.coeffs, abs=1e-8 * alpha
        )

    def test_scale_equivariance_weights(self):
        rng = np.random.default_rng(4)
        prob = random_problem(rng, n_max=4, N_max=60)
        sol = solve(prob)
        alpha = 0.25
        scaled = make_problem(prob.points, alpha * prob.weights, prob.values, prob.degree)
        sol2 = solve(scaled)
        assert sol2.objective == pytest.approx(alpha * sol.objective, rel=1e-8)
        assert sol2.coefficients.coeffs == pytest.approx(
            sol.coefficients.coeffs, abs=1e-7
        )


class TestObjectiveDiscretization:
    def test_uniform_midpoint_objective_within_n_minus_2(self):
        # objective of the discrete fit is within O(N^-2) of the continuous
        # best-L1 error; measured constants sit near 20-50, assert C = 100
        from l1rec.catalog import catalog_function
        from l1rec.newton import best_l1

        f = catalog_function("expsin10")
        ref = best_l1(f, 10).l1_error
        for m in (500, 1000):
            x = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
            w = np.full(m, 2.0 / m)
            sol = solve(make_problem(x, w, f.eval(x), 10))
            assert abs(sol.objective - ref) <= 100.0 / m**2

