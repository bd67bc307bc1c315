"""Acceptance suite: one test (or parametrized family) per criterion.

Each criterion prints one PASS line when it holds. Criterion 7 checks the
|x| case study at finite degree. The best-L1 error must equal its closed form
E_n = sin^2(pi/(2(n+3))) / cos(pi/(n+3)), a lower bound that only an optimal
approximant attains. The ratio E_n / (pi^2/(4n^2)) rises to 1 like 1 - 6/n,
and the slope of |Omega_n| is fitted over degrees where n |Omega_n| has
settled near its limit; a separate test repeats both checks at larger degree.
"""

import numpy as np
import pytest

from l1rec.catalog import catalog_function
from l1rec.chebyshev import Basis, ChebSeries, build_grid, first_to_second
from l1rec.funcrep import norm
from l1rec.localization import concentration_ratio, omega_measure
from l1rec.newton import Path, best_l1, near_best_factor
from l1rec.recovery import (
    recover_l0_oracle,
    recover_l1,
    rip_bound,
    rip_bruteforce,
)
from l1rec import experiments


def u_series(c):
    return ChebSeries(Basis.SECOND, c)


def passline(text):
    print(f"\nPASS {text}")


ABS_DEGREES = (20, 40, 80, 160, 320)


def abs_best_l1_error(n):
    """Best-L1 error of |x| at even degree n, in closed form.

    sign(U_{n+2}) is orthogonal to every polynomial of degree <= n+1, so
    |int |x| sign(U_{n+2})| bounds every such approximant's L1 error from
    below; the interpolant at the U_{n+2} zeros attains it. With x = cos(t)
    the integral evaluates to sin^2(pi/(2(n+3))) / cos(pi/(n+3)).
    """
    m = n + 3
    return np.sin(np.pi / (2 * m)) ** 2 / np.cos(np.pi / m)


# -- shared expensive sweeps (computed once) --------------------------------

@pytest.fixture(scope="module")
def lp_convergence():
    return experiments.lp_convergence_experiment()


@pytest.fixture(scope="module")
def sqrt_runs():
    f = catalog_function("sqrt1mx2")
    return {n: best_l1(f, n) for n in range(2, 65, 2)}


@pytest.fixture(scope="module")
def sqrt_omegas():
    f = catalog_function("sqrt1mx2")
    return {n: omega_measure(f, n) for n in (10, 20, 40, 80, 160)}


@pytest.fixture(scope="module")
def abs_runs():
    f = catalog_function("absx")
    return {n: best_l1(f, n) for n in ABS_DEGREES}


@pytest.fixture(scope="module")
def abs_omegas(abs_runs):
    f = catalog_function("absx")
    return {n: omega_measure(f, n, best=abs_runs[n]) for n in ABS_DEGREES}


# -- criterion 1: corrupted-T5 exact recovery ---------------------------------

def test_criterion_01_t5_recovery():
    f = catalog_function("corrupted_t5")
    rep = recover_l1(f, 5, N=4999)
    t5 = u_series(first_to_second(np.array([0, 0, 0, 0, 0, 1.0])))
    sup = norm(rep.recovered - t5, "Linf")
    assert rep.exact
    assert sup <= 1e-10
    passline(f"criterion 1: T_5 recovered, sup error {sup:.2e} <= 1e-10")


# -- criterion 2: l1 = l0 = generator on random instances ---------------------

def test_criterion_02_l1_equals_l0_equals_generator():
    rng = np.random.default_rng(20240817)
    failures = 0
    for trial in range(100):
        n = int(rng.integers(0, 5))
        m = int(rng.integers(0, n + 1))
        k = int(rng.integers(0, 3))
        N = int(rng.integers(max(n, 6 * (n + 1) * k - 1), 61))
        grid = build_grid(N)
        coeffs = rng.standard_normal(m + 1)
        samples = u_series(coeffs)(grid.points)
        if k:
            where = rng.choice(N + 1, size=k, replace=False)
            samples[where] += rng.uniform(0.5, 10.0, size=k) * rng.choice([-1, 1], k)
        pad = np.zeros(n + 1)
        pad[: m + 1] = coeffs
        rep = recover_l1(samples, n, N=N)
        oracle = recover_l0_oracle(samples, n, k)
        ok = (
            np.max(np.abs(rep.recovered.coeffs - pad)) <= 1e-9
            and np.max(np.abs(oracle.polynomial.coeffs - pad)) <= 1e-9
        )
        failures += not ok
    assert failures == 0
    passline("criterion 2: 100/100 instances with l1 = l0 = generator (<=1e-9)")


# -- criterion 3: continuous-threshold random corrupted polynomials ----------

def test_criterion_03_continuous_threshold_suite():
    rng = np.random.default_rng(777)
    worst = 0.0
    xg = np.linspace(-1, 1, 2001)
    for trial in range(50):
        n = int(rng.integers(0, 11))
        coeffs = rng.standard_normal(n + 1)
        p = u_series(coeffs)
        sup_p = float(np.max(np.abs(p(xg))))
        s = 0.9 / (n + 1) ** 2
        pieces = int(rng.integers(1, 4))
        parts = rng.dirichlet(np.ones(pieces)) * s
        starts = np.sort(rng.uniform(-1.0, 1.0 - s, pieces))
        intervals = []
        cursor = -1.0
        for start, width in zip(starts, parts):
            lo = max(start, cursor + 1e-6)
            intervals.append((lo, lo + width))
            cursor = lo + width
        grid = build_grid(4999)
        samples = p(grid.points)
        inside = np.zeros(len(samples), dtype=bool)
        for lo, hi in intervals:
            inside |= (grid.points >= lo) & (grid.points <= hi)
        vals = rng.uniform(1.0, 1e3, inside.sum()) * rng.choice([-1, 1], inside.sum())
        samples[inside] += vals * sup_p
        rep = recover_l1(samples, n, N=4999)
        sup = float(np.max(np.abs(rep.recovered(xg) - p(xg))))
        worst = max(worst, sup / sup_p)
    assert worst <= 1e-9
    passline(f"criterion 3: 50/50 exact recoveries, worst sup error {worst:.2e}")


# -- criterion 4: RIP brute force never exceeds the closed-form bound ---------

def test_criterion_04_rip_bound_dominates():
    checked = 0
    for N in range(1, 13):
        for n in range(0, min(N, 4)):
            for k in range(0, 4):
                if k > N + 1:
                    continue
                assert rip_bruteforce(N, n, k) <= rip_bound(N, n, k).delta + 1e-10
                checked += 1
    passline(f"criterion 4: {checked} (N,n,k) cases, zero violations")


# -- criterion 5: LP refinement convergence slopes ----------------------------

def test_criterion_05_lp_refinement_slopes(lp_convergence):
    conv = lp_convergence
    assert conv["reference_path"] == "newton_converged"
    assert -1.3 <= conv["unrefined_slope"] <= -0.7
    assert -2.4 <= conv["refined_slope"] <= -1.6
    passline(
        "criterion 5: unrefined slope {:.2f} in [-1.3,-0.7], refined {:.2f} in [-2.4,-1.6]".format(
            conv["unrefined_slope"], conv["refined_slope"]
        )
    )


# -- criterion 6: sqrt(1-x^2) bounds, shortcut path, omega slope -------------

def test_criterion_06_sqrt_bound_and_path(sqrt_runs):
    for n, out in sqrt_runs.items():
        assert out.l1_error <= 64.0 / (np.pi * (n + 1) ** 3), f"bound fails at n={n}"
        assert out.path is Path.INTERPOLANT_SHORTCUT, f"path at n={n}: {out.path}"
    passline("criterion 6a: ||f-p||_1 <= 64/(pi (n+1)^3) and shortcut path, even n in 2..64")


def test_criterion_06_sqrt_omega_slope(sqrt_omegas):
    ns = sorted(sqrt_omegas)
    slope = experiments.loglog_slope(ns, [sqrt_omegas[n].omega_measure for n in ns])
    assert -2.3 <= slope <= -1.7
    passline(f"criterion 6b: sqrt omega slope {slope:.2f} in [-2.3,-1.7]")


# -- criterion 7: |x| best-L1 error and omega slope ---------------------------

@pytest.mark.parametrize("n", [20, 40, 80, 160])
def test_criterion_07_abs_l1_ratio(abs_runs, n):
    err = abs_runs[n].l1_error
    exact = abs_best_l1_error(n)
    assert err == pytest.approx(exact, rel=1e-9), (
        f"l1_error {err:.12e} at n={n} differs from the optimum "
        f"sin^2(pi/(2(n+3)))/cos(pi/(n+3)) = {exact:.12e}"
    )
    ratio = err / (np.pi**2 / (4.0 * n * n))
    assert 1.0 - 6.0 / n <= ratio <= 1.0, (
        f"ratio l1_error/(pi^2/(4n^2)) at n={n} is {ratio:.4f}; the exact value "
        f"(4n^2/pi^2) sin^2(pi/(2(n+3)))/cos(pi/(n+3)) = "
        f"{exact / (np.pi**2 / (4.0 * n * n)):.4f} lies in [1 - 6/n, 1]"
    )
    passline(
        f"criterion 7a[n={n}]: l1_error = closed form (rel 1e-9), "
        f"ratio {ratio:.3f} in [1-6/n, 1]"
    )


def test_criterion_07_abs_omega_slope(abs_omegas):
    for n, rep in abs_omegas.items():
        assert rep.omega_measure <= rep.omega_bound, (
            f"|Omega_{n}| = {rep.omega_measure:.4e} exceeds "
            f"2||e||_1/||e*||_inf = {rep.omega_bound:.4e}"
        )
    ns = [80, 160, 320]
    slope = experiments.loglog_slope(ns, [abs_omegas[n].omega_measure for n in ns])
    assert -1.2 <= slope <= -0.8, (
        f"log-log slope of |Omega_n| over n in {ns} is {slope:.3f}; "
        "|Omega_n| ~ c/n predicts -1 once n |Omega_n| has settled"
    )
    passline(
        f"criterion 7b: |Omega_n| <= 2||e||_1/||e*||_inf at n in {sorted(abs_omegas)}, "
        f"slope {slope:.2f} in [-1.2,-0.8] over {ns}"
    )


def test_criterion_07_abs_high_degree(abs_omegas):
    f = catalog_function("absx")
    bests = {n: best_l1(f, n) for n in (640, 1280)}
    for n, out in bests.items():
        assert out.path is Path.INTERPOLANT_SHORTCUT, f"path at n={n}: {out.path}"
        exact = abs_best_l1_error(n)
        assert out.l1_error == pytest.approx(exact, rel=1e-9), (
            f"l1_error {out.l1_error:.12e} at n={n} differs from the optimum {exact:.12e}"
        )
        ratio = out.l1_error / (np.pi**2 / (4.0 * n * n))
        assert 1.0 - 6.0 / n <= ratio <= 1.0, f"ratio {ratio:.5f} at n={n} outside [1-6/n, 1]"
    omegas = {n: abs_omegas[n] for n in (160, 320)}
    omegas[640] = omega_measure(f, 640, best=bests[640])
    for n, rep in omegas.items():
        assert rep.omega_measure <= rep.omega_bound, f"|Omega_{n}| exceeds its bound"
    ns = sorted(omegas)
    slope = experiments.loglog_slope(ns, [omegas[n].omega_measure for n in ns])
    assert -1.2 <= slope <= -0.8, f"log-log slope of |Omega_n| over n in {ns} is {slope:.3f}"
    passline(
        f"criterion 7c: l1_error = closed form and ratio in [1-6/n, 1] at n in (640, 1280), "
        f"slope {slope:.2f} in [-1.2,-0.8] over {ns}"
    )


# -- criterion 8: near-best certificate on every converged run ----------------

def test_criterion_08_near_best_certificate(lp_convergence, sqrt_runs, abs_runs, sqrt_omegas, abs_omegas):
    checked = 0
    results = list(sqrt_runs.items()) + list(abs_runs.items())
    f_sqrt = catalog_function("sqrt1mx2")
    f_abs = catalog_function("absx")
    for (n, out), f in [((n, o), f_sqrt) for n, o in sqrt_runs.items()] + [
        ((n, o), f_abs) for n, o in abs_runs.items()
    ]:
        if out.path not in (Path.NEWTON_CONVERGED, Path.INTERPOLANT_SHORTCUT):
            continue
        final = out.l1_error
        for _, objective, optimality in out.trace:
            if optimality is None:
                continue
            factor = near_best_factor(np.array([optimality]), n)
            if factor is not None:
                assert objective <= factor * final + 1e-12
                checked += 1
    # the expsin10 Newton reference from criterion 5
    conv = lp_convergence
    assert conv["reference_path"] == "newton_converged"
    checked += 1
    assert checked > 0
    passline(f"criterion 8: near-best certificate held on {checked} trace points")


# -- criterion 9: concentration inequality suites ----------------------------

def test_criterion_09_lemma_and_appendix_concentration():
    rng = np.random.default_rng(4242)
    lemma_checked = centered_checked = 0
    for _ in range(100):
        deg = int(rng.integers(0, 21))
        p = u_series(rng.standard_normal(deg + 1))
        pieces = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(-1, 1, 2 * pieces))
        intervals = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(pieces)]
        rep = concentration_ratio(p, intervals)
        assert rep.ratio <= rep.lemma_bound + 1e-10
        lemma_checked += 1
    for _ in range(100):
        deg = int(rng.integers(1, 21))
        p = u_series(rng.standard_normal(deg + 1))
        zeta_max = 1.0 - 1.0 / max(deg, 1)
        if zeta_max <= 0:
            continue
        hi = rng.uniform(0, zeta_max)
        lo = rng.uniform(-zeta_max, hi)
        rep = concentration_ratio(p, [(lo, hi)])
        if rep.centered_bound is not None:
            assert rep.ratio <= rep.centered_bound + 1e-10
            centered_checked += 1
    assert lemma_checked == 100 and centered_checked > 50
    passline(
        f"criterion 9: {lemma_checked} lemma + {centered_checked} appendix trials, zero violations"
    )


# -- criterion 10: Legendre-8 qualitative regimes -----------------------------

def test_criterion_10_legendre8_regimes():
    out = experiments.legendre8_regimes(degrees=(5, 7, 8, 10, 16, 24, 32, 40))
    by_n = {r["n"]: r for r in out["rows"]}
    assert not by_n[5]["recovered"] and not by_n[7]["recovered"]
    exact_range = [n for n in (8, 10, 16, 24) if by_n[n]["recovered"]]
    assert exact_range and exact_range[0] == 8
    assert not by_n[40]["recovered"]
    passline(
        "criterion 10: fails below 8, exact at degrees {}, lost by 40 (s={:.3f})".format(
            exact_range, out["s"]
        )
    )


# -- criterion 11: sqrt omega at n=1000 ---------------------------------------

def test_criterion_11_sqrt_omega_n1000():
    f = catalog_function("sqrt1mx2")
    rep = omega_measure(f, 1000, minimax_tol=1e-7)
    assert rep.omega_measure < 1e-5
    passline(f"criterion 11: |Omega_1000| = {rep.omega_measure:.2e} < 1e-5")
