"""Recovery: null-space basis, RIP, l1/l0 recovery, thresholds, sweeps."""

import numpy as np
import pytest

from l1rec import lp, recovery
from l1rec.catalog import corrupted
from l1rec.chebyshev import Basis, ChebSeries, build_grid, chebvander_second
from l1rec.errors import DomainError, NotFound, SolverFailure, TooLarge
from l1rec.funcrep import Corruption, FuncRep
from l1rec.recovery import (
    degree_sweep,
    exact_recovery_threshold,
    near_recovery_factor,
    null_space_basis,
    recover_l0_oracle,
    recover_l1,
    rip_bound,
    rip_bruteforce,
)


def u_series(c):
    return ChebSeries(Basis.SECOND, c)


class TestNullBasis:
    def test_2x1_unit_column(self):
        V = null_space_basis(1, 0)
        assert V.shape == (2, 1)
        assert np.linalg.norm(V[:, 0]) == pytest.approx(1.0, abs=1e-13)

    def test_orthonormal_columns(self):
        V = null_space_basis(5, 2)
        G = V.T @ V
        assert np.max(np.abs(G - np.eye(3))) < 1e-13

    def test_annihilates_scaled_vandermonde(self):
        N, n = 10, 3
        V = null_space_basis(N, n)
        g = build_grid(N)
        Phi = chebvander_second(g.points, n)
        D = np.sqrt(2.0 / (N + 2)) * g.sines
        assert np.max(np.abs(V.T @ (D[:, None] * Phi))) < 1e-13


class TestRipBound:
    def test_boundary_case(self):
        b = rip_bound(10, 1, 1)
        assert b.delta == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert not b.sufficient

    def test_sufficient_case(self):
        b = rip_bound(11, 1, 1)
        assert b.delta == pytest.approx(4.0 / 13.0, rel=1e-15)
        assert b.sufficient

    def test_k0(self):
        b = rip_bound(7, 3, 0)
        assert b.delta == 0.0
        assert b.sufficient


class TestRipBruteforce:
    def test_k0(self):
        assert rip_bruteforce(9, 1, 0) == 0.0

    def test_k1_column_norm_sweep(self):
        N, n = 9, 2
        V = null_space_basis(N, n)
        expect = max(abs(1.0 - np.dot(V[i], V[i])) for i in range(N + 1))
        assert rip_bruteforce(N, n, 1) == pytest.approx(expect, abs=1e-13)
        assert rip_bruteforce(N, n, 1) <= 2.0 * (n + 1) / (N + 2) + 1e-10

    def test_n9_k2_enumeration(self):
        assert rip_bruteforce(9, 1, 2) <= 8.0 / 11.0 + 1e-12

    def test_bound_dominates(self):
        for N in range(2, 13):
            for n in range(0, min(N, 4)):
                for k in range(0, 4):
                    if k > N + 1:
                        continue
                    assert rip_bruteforce(N, n, k) <= rip_bound(N, n, k).delta + 1e-10

    def test_guard(self):
        with pytest.raises(TooLarge):
            rip_bruteforce(2000, 1, 4)


class TestRecoverL1:
    def test_uncorrupted_polynomial(self):
        p = u_series([0.4, -1.1, 0.0, 0.3])
        rep = recover_l1(p, 3, N=40)
        assert rep.exact
        assert rep.k == 0
        assert rep.recovered.coeffs == pytest.approx(p.coeffs, abs=1e-11)

    def test_single_corrupted_sample(self):
        g = build_grid(40)
        p = u_series([0.5, 0.2, -0.7, 1.0])
        samples = p(g.points)
        samples[13] += 5.0
        rep = recover_l1(samples, 3, N=40)
        assert rep.exact  # 41 > 6*4*1 - 1 = 23
        assert list(rep.corrupted_indices) == [13]
        assert rep.k == 1
        assert rep.recovered.coeffs == pytest.approx(p.coeffs, abs=1e-11)

    def test_metadata_certificate(self):
        t5 = ChebSeries(Basis.FIRST, [0, 0, 0, 0, 0, 1.0]).to_basis(Basis.SECOND)
        omega = lambda x: 2.0 * np.cos(35.0 * x) + 0.8
        intervals = ((-0.7, -0.67), (0.9, 0.903))
        corr = Corruption(intervals=intervals, clean=t5)
        frep = corrupted(t5, omega, corr, "corrupted_t5")
        rep = recover_l1(frep, 5, N=4999)
        assert rep.exact
        diff = rep.recovered - t5
        assert np.max(np.abs(diff.coeffs)) < 1e-10
        cert = rep.certificate
        assert cert.l0_uniqueness_condition
        assert cert.oversampling_condition
        # s = 0.033 exceeds the continuous threshold 1/36 ~ 0.0278: recovery
        # here is certified by the discrete oversampling condition instead
        assert not cert.continuous_threshold_condition
        assert cert.support_measure_match
        assert cert.strict_threshold == pytest.approx(1.0 / 100.0)

    def test_not_a_polynomial(self):
        rep = recover_l1(FuncRep(np.abs, breakpoints=[0.0]), 3, N=200)
        assert not rep.exact

    def test_duality_gap_corrupted_t5(self):
        from l1rec.catalog import catalog_function

        f = catalog_function("corrupted_t5")
        rep = recover_l1(f, 5)
        assert rep.exact
        objective = float(np.dot(rep.grid.weights, np.abs(rep.residuals)))
        scale = float(np.max(np.abs(f.eval(rep.grid.points))))
        assert 0.0 <= rep.duality_gap <= 1e-8 * max(objective, scale)

    def test_nonfinite_samples_rejected(self):
        # a NaN sample fails at the boundary, before the LP sees it
        samples = u_series([0.5, 0.2, -0.7, 1.0])(build_grid(40).points)
        samples[7] = np.nan
        with pytest.raises(DomainError, match="finite"):
            recover_l1(samples, 3)


class TestL0Oracle:
    def test_uncorrupted(self):
        g = build_grid(6)
        p = u_series([0.1, 1.0])
        out = recover_l0_oracle(p(g.points), 1, 2)
        assert out.k == 0
        assert out.polynomial.coeffs == pytest.approx([0.1, 1.0], abs=1e-12)

    def test_single_discard(self):
        g = build_grid(6)
        samples = g.points.copy()  # f(x) = x
        samples[2] = 7.0
        out = recover_l0_oracle(samples, 1, 2)
        assert out.k == 1
        assert out.discarded == (2,)
        assert out.polynomial.coeffs == pytest.approx([0.0, 0.5], abs=1e-12)

    def test_two_discards_unique(self):
        g = build_grid(6)
        p = u_series([0.3, 0.5])
        samples = p(g.points)
        samples[1] -= 2.0
        samples[5] += 1.5
        out = recover_l0_oracle(samples, 1, 3)
        assert out.k == 2
        assert out.discarded == (1, 5)
        assert out.polynomial.coeffs == pytest.approx([0.3, 0.5], abs=1e-11)

    def test_not_found(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NotFound):
            recover_l0_oracle(rng.standard_normal(12), 1, 2)

    def test_guard(self):
        with pytest.raises(TooLarge):
            recover_l0_oracle(np.zeros(300), 1, 4)


class TestThresholds:
    def test_global_n7(self):
        assert exact_recovery_threshold(7) == pytest.approx(1.0 / 64.0)

    def test_global_n0(self):
        assert exact_recovery_threshold(0) == pytest.approx(1.0)

    def test_centered_n100(self):
        assert exact_recovery_threshold(100, "centered", zeta=0.0) == pytest.approx(5e-4)

    def test_centered_domain_error(self):
        with pytest.raises(DomainError):
            exact_recovery_threshold(10, "centered", zeta=0.95)  # 1-zeta < 1/n


class TestNearRecoveryFactor:
    def test_s0(self):
        out = near_recovery_factor(0.0, 12)
        assert out.factor == pytest.approx(2.0)
        assert out.near_best_constant == pytest.approx(3.0)

    def test_half_threshold(self):
        n = 5
        out = near_recovery_factor(1.0 / (2 * (n + 1) ** 2), n)
        assert out.factor == pytest.approx(8.0 / 3.0)

    def test_n5_s001(self):
        out = near_recovery_factor(0.01, 5)
        assert out.factor == pytest.approx(4.0 / (2.0 - 0.36), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            near_recovery_factor(0.5, 3)


class TestDegreeSweep:
    def test_corrupted_cubic(self):
        p = u_series([0.5, -0.3, 0.8, 1.2])
        corr = Corruption(intervals=((-0.21, -0.18), (0.4, 0.41)), clean=p)
        omega = lambda x: 3.0 + np.sin(20 * x)
        out = degree_sweep(corrupted(p, omega, corr, "f"), 6, N=400)
        assert out.found == 3
        assert len(out.reports) == 4
        assert out.reports[-1].recovered.coeffs == pytest.approx(p.coeffs, abs=1e-9)

    def test_uncorrupted_constant(self):
        out = degree_sweep(u_series([2.5]), 4, N=60)
        assert out.found == 0

    def test_absx_not_found(self):
        out = degree_sweep(FuncRep(np.abs, breakpoints=[0.0]), 4, N=150)
        assert out.found is None
        assert len(out.reports) == 5


class TestL1EqualsL0Property:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            n = int(rng.integers(0, 5))
            m = int(rng.integers(0, n + 1))
            k = int(rng.integers(0, 3))
            N_lo = max(n, 6 * (n + 1) * k - 1, m)
            N = int(rng.integers(N_lo, 61))
            g = build_grid(N)
            coeffs = rng.standard_normal(m + 1)
            p = u_series(coeffs)
            samples = p(g.points)
            if k:
                where = rng.choice(N + 1, size=k, replace=False)
                samples[where] += rng.uniform(0.5, 10.0, size=k) * rng.choice([-1, 1], k)
            rep = recover_l1(samples, n, N=N)
            oracle = recover_l0_oracle(samples, n, k)
            pad = np.zeros(n + 1)
            pad[: m + 1] = coeffs
            assert rep.exact
            assert rep.recovered.coeffs == pytest.approx(pad, abs=1e-9)
            assert oracle.polynomial.coeffs == pytest.approx(pad, abs=1e-9)


def criterion3_draw(rng, points):
    """One draw of the criterion-3 generator: a random polynomial of degree
    n <= 10, corrupted on 1-3 intervals of total measure 0.9/(n+1)^2 by
    values 1 to 1e3 times its sup norm. Returns (n, coeffs, samples, k)."""
    n = int(rng.integers(0, 11))
    coeffs = rng.standard_normal(n + 1)
    p = u_series(coeffs)
    sup_p = float(np.max(np.abs(p(np.linspace(-1, 1, 2001)))))
    s = 0.9 / (n + 1) ** 2
    pieces = int(rng.integers(1, 4))
    parts = rng.dirichlet(np.ones(pieces)) * s
    starts = np.sort(rng.uniform(-1.0, 1.0 - s, pieces))
    samples = p(points)
    inside = np.zeros(len(points), dtype=bool)
    cursor = -1.0
    for start, width in zip(starts, parts):
        lo = max(start, cursor + 1e-6)
        inside |= (points >= lo) & (points <= lo + width)
        cursor = lo + width
    k = int(inside.sum())
    samples[inside] += rng.uniform(1.0, 1e3, k) * rng.choice([-1, 1], k) * sup_p
    return n, coeffs, samples, k


class TestRandomCorruptedPolynomials:
    def test_criterion3_stream2_draw40(self):
        # a degenerate LP on which HiGHS can stop after 0 iterations with
        # "Status 0: Not Set" at the 1e-10 feasibility tolerance
        rng = np.random.default_rng(2)
        points = build_grid(4999).points
        for _ in range(40):
            n, coeffs, samples, k = criterion3_draw(rng, points)
        assert (n, k) == (10, 14)
        rep = recover_l1(samples, n, N=4999)
        assert rep.exact
        assert rep.k == k
        assert rep.recovered.coeffs == pytest.approx(coeffs, abs=1e-9 * np.max(np.abs(coeffs)))


@pytest.fixture
def lp_sizes(monkeypatch):
    """The sample count of every LP that recover_l1 solves, in call order."""
    sizes = []

    def recording(problem):
        sizes.append(len(problem.points))
        return lp.solve(problem)

    monkeypatch.setattr(recovery, "solve", recording)
    return sizes


def full_grid_report(monkeypatch, samples, n, N):
    """recover_l1 with stride < 2: its one LP runs on the full grid."""
    with monkeypatch.context() as m:
        m.setattr(recovery, "CANDIDATE_POINTS", 10**9)
        return recover_l1(samples, n, N=N)


def assert_same_answer(rep, ref):
    assert rep.recovered.coeffs.tobytes() == ref.recovered.coeffs.tobytes()
    assert (rep.k, rep.exact) == (ref.k, ref.exact)
    assert np.array_equal(rep.corrupted_indices, ref.corrupted_indices)


class TestCertificateFirst:
    """recover_l1 solves its LP on every stride-th sample and runs the
    full-grid LP only when the strided fit's refit is not exact."""

    def test_draws_match_the_full_grid(self, lp_sizes, monkeypatch):
        rng = np.random.default_rng(7)
        points = build_grid(4999).points
        strided = fallback = 0
        for _ in range(40):
            n, coeffs, samples, k = criterion3_draw(rng, points)
            lp_sizes.clear()
            rep = recover_l1(samples, n, N=4999)
            sizes = list(lp_sizes)
            assert sizes[0] < 21 * (n + 1)  # the strided LP always runs first
            if rep.exact:
                assert sizes == [rep.lp_points]  # no full-grid LP
                strided += 1
            else:
                assert sizes[1:] == [rep.lp_points] == [5000]
                fallback += 1
            assert_same_answer(rep, full_grid_report(monkeypatch, samples, n, 4999))
        assert strided > 0 and fallback > 0

    def test_legendre8_falls_back(self, lp_sizes, monkeypatch):
        from l1rec.catalog import catalog_function

        rep = recover_l1(catalog_function("legendre8_corrupted"), 8)
        assert lp_sizes[1:] == [rep.lp_points] == [5000]
        assert lp_sizes[0] < 5000
        assert (rep.k, rep.exact) == (590, False)
        samples = catalog_function("legendre8_corrupted").eval(rep.grid.points)
        assert_same_answer(rep, full_grid_report(monkeypatch, samples, 8, 4999))

    def test_small_grid_runs_one_lp(self, lp_sizes):
        # N+1 = 150 < 40(n+1) = 160: stride < 2
        p = u_series([0.5, 0.2, -0.7, 1.0])
        rep = recover_l1(p, 3, N=149)
        assert lp_sizes == [rep.lp_points] == [150]
        assert rep.exact

    def test_strided_solver_failure_falls_back(self, monkeypatch):
        g = build_grid(4999)
        p = u_series([0.5, 0.2, -0.7, 1.0])
        samples = p(g.points)
        samples[1000:1020] += 3.0
        calls = []

        def failing_first(problem):
            calls.append(len(problem.points))
            if len(calls) == 1:
                raise SolverFailure("l1-fit LP failed")
            return lp.solve(problem)

        monkeypatch.setattr(recovery, "solve", failing_first)
        rep = recover_l1(samples, 3, N=4999)
        assert calls[1:] == [rep.lp_points] == [5000]
        assert rep.exact and rep.k == 20
