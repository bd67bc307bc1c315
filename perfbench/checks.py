"""Correctness checks computed apart from the library.

Each check takes what a public call returned (coefficients and reported
numbers) and compares it with an independent computation: a closed form, a
quadrature written here, or a property every correct answer must have. Only
numpy and scipy are used; nothing from l1rec is evaluated. A failed check
raises CheckFailed with the numbers that disagree.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from scipy.optimize import brentq

EPS = np.finfo(float).eps
_GX, _GW = np.polynomial.legendre.leggauss(32)
CHUNK = 1 << 16  # points per dense-evaluation block, keeps check memory small
L1_RTOL = 1e-10  # reported l1_error against the quadrature here
FACTOR_LIMIT = 1e-8  # near-best factor minus 1
RECOVERY_RTOL = 1e-9  # recovered minus clean polynomial, over its sup norm
RECOVERY_POINTS = 20001
OMEGA_POINTS = (1 << 20) + 1
MINIMAX_RTOL = 1e-7  # minimax error against the dense max of its residual


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- polynomial evaluation ---------------------------------------------------

def u_series_eval(c, x):
    """sum_j c_j U_j(x) by Clenshaw's recurrence for the second kind."""
    x = np.asarray(x, dtype=float)
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for ck in np.asarray(c, dtype=float)[::-1]:
        b1, b2 = ck + 2.0 * x * b1 - b2, b1
    return b1


def series_eval(series, x):
    """Evaluate a returned Chebyshev series from its basis tag and coefficients."""
    if series.basis.value == "second":
        return u_series_eval(series.coeffs, x)
    return npcheb.chebval(np.asarray(x, dtype=float), series.coeffs)


def dense(fn, a: float, b: float, m: int):
    """Yield (x, fn(x)) over m uniform points of [a, b], endpoints included,
    in blocks of CHUNK points."""
    for lo in range(0, m, CHUNK):
        idx = np.arange(lo, min(lo + CHUNK, m))
        x = a + (b - a) * idx / (m - 1)
        yield x, fn(x)


# -- quadrature of |e| and the optimality integrals --------------------------

def sign_change_roots(e, cuts, samples: int = 20001) -> np.ndarray:
    """Roots of e on [-1, 1] where it changes sign, one per sampled sign flip,
    each located by Brent's method. `cuts` are kinks of e, sampled exactly."""
    x = np.unique(np.concatenate([np.linspace(-1.0, 1.0, samples), cuts]))
    v = e(x)
    roots = []
    for i in np.flatnonzero(v[:-1] * v[1:] < 0):
        roots.append(brentq(e, x[i], x[i + 1], xtol=1e-16, rtol=4 * EPS, maxiter=200))
    roots.extend(x[1:-1][v[1:-1] == 0.0])
    return np.unique(np.asarray(roots, dtype=float))


def _segments(points, max_len: float = 0.125):
    """Split [-1, 1] at the given points and into pieces no longer than max_len."""
    cuts = np.unique(np.concatenate([[-1.0, 1.0], np.clip(points, -1.0, 1.0)]))
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        k = max(1, int(np.ceil((b - a) / max_len)))
        edges = np.linspace(a, b, k + 1)
        out.extend(zip(edges[:-1], edges[1:]))
    return out


def gauss(fn, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    return half * float(np.dot(_GW, fn(0.5 * (a + b) + half * _GX)))


def l1_error_and_mu(e, n: int, kinks):
    """(integral |e|, mu) for a residual e that is smooth between its kinks,
    with mu_j = integral sign(e) U_j = sum over sign segments of
    sign * (T_{j+1}(b) - T_{j+1}(a)) / (j + 1)."""
    roots = sign_change_roots(e, np.asarray(kinks, dtype=float))
    total = 0.0
    for a, b in _segments(np.concatenate([roots, kinks])):
        total += abs(gauss(e, a, b))
    bounds = np.concatenate([[-1.0], roots, [1.0]])
    signs = np.sign(e(0.5 * (bounds[:-1] + bounds[1:])))
    k = np.arange(1, n + 2)
    T = np.cos(np.outer(k, np.arccos(bounds)))  # T_k at every bound
    mu = ((T[:, 1:] - T[:, :-1]) / k[:, None]) @ signs
    return total, mu


def sign_bound(f, m: int, kinks=()) -> float:
    """|integral f sign(U_m)| by Gauss quadrature in x = cos(t) between the
    zeros t = k pi/(m+1) of U_m (and the kinks of f), where the integrand
    f(cos t) sin t is smooth even when f has endpoint singularities.
    sign(U_m) is orthogonal to every polynomial of degree < m, so this bounds
    the L1 error of any approximant of degree <= m - 1 from below."""
    t_edges = np.unique(np.concatenate([np.arange(m + 2) * np.pi / (m + 1), np.arccos(kinks)]))
    half = 0.5 * (t_edges[1:] - t_edges[:-1])
    mid = 0.5 * (t_edges[1:] + t_edges[:-1])
    t = mid[:, None] + half[:, None] * _GX[None, :]
    pieces = half * ((f(np.cos(t)) * np.sin(t)) @ _GW)
    return abs(float(np.dot(np.sign(np.sin((m + 1) * mid)), pieces)))


def abs_best_l1(n: int) -> float:
    """Best-L1 error of |x| at even degree n: sin^2(pi/(2(n+3))) / cos(pi/(n+3))."""
    m = n + 3
    return float(np.sin(np.pi / (2 * m)) ** 2 / np.cos(np.pi / m))


def u_zeros(m: int) -> np.ndarray:
    return np.cos(np.arange(1, m + 1) * np.pi / (m + 1))


# -- the per-workload checks -------------------------------------------------

def check_best_l1(f, kinks, n: int, out) -> None:
    """Newton-path answer: the reported l1_error matches a quadrature of
    |f - p| done here, and the optimality integrals mu computed here give a
    near-best factor 1/(1 - (2/pi)(n+2)^2 max|mu|) within FACTOR_LIMIT of 1."""
    e = lambda x: f(x) - series_eval(out.polynomial, x)
    l1, mu = l1_error_and_mu(e, n, kinks)
    require(
        abs(l1 - out.l1_error) <= L1_RTOL * l1,
        f"l1_error {out.l1_error!r} != quadrature {l1!r}",
    )
    load = (2.0 / np.pi) * (n + 2) ** 2 * float(np.max(np.abs(mu)))
    require(load < 1.0, f"near-best bound does not bite: load {load:.3e}")
    factor = 1.0 / (1.0 - load)
    require(factor - 1.0 <= FACTOR_LIMIT, f"near-best factor {factor!r} is not within {FACTOR_LIMIT} of 1")


def check_shortcut(f, kinks, f_l1: float, n: int, out, exact: float | None = None) -> None:
    """Interpolant-shortcut answer: l1_error never below, and equal to, the
    sign(U_m) lower bound for m in {n+1, n+2} (or the closed form `exact`
    when given), to the rounding of the signed sum, (n+2) eps ||f||_1; and
    the residual vanishes at the zeros of the U_m that attains the bound, as
    a certified interpolant must, to the (n+2)^2 eps rounding of a degree-n
    second-kind series near the endpoints."""
    tol = (n + 2) * EPS * f_l1
    bounds = {m: sign_bound(f, m, kinks) for m in (n + 1, n + 2)}
    m = max(bounds, key=bounds.get)
    lower = bounds[m]
    require(out.l1_error >= lower - tol, f"l1_error {out.l1_error!r} below the lower bound {lower!r}")
    require(abs(out.l1_error - lower) <= tol, f"l1_error {out.l1_error!r} does not attain the bound {lower!r} (tol {tol:.1e})")
    if exact is not None:
        require(abs(out.l1_error - exact) <= tol, f"l1_error {out.l1_error!r} != closed form {exact!r} (tol {tol:.1e})")
    nodes = u_zeros(m)
    p = out.polynomial
    scale = float(np.max(np.abs(f(nodes))))
    coeff = float(np.max(np.abs(p.coeffs)))
    node_res = float(np.max(np.abs(f(nodes) - series_eval(p, nodes))))
    require(
        node_res <= (n + 2) ** 2 * EPS * max(scale, coeff),
        f"residual {node_res:.3e} at the zeros of U_{m} is not rounding-level",
    )


def check_recovery(clean, out, expected_k: int | None = None) -> None:
    """Recovered polynomial equals the clean generator to RECOVERY_RTOL of its
    sup norm on a dense grid; the detected corruption count equals expected_k."""
    worst = sup = 0.0
    for x, v in dense(clean, -1.0, 1.0, RECOVERY_POINTS):
        sup = max(sup, float(np.max(np.abs(v))))
        worst = max(worst, float(np.max(np.abs(series_eval(out.recovered, x) - v))))
    require(worst <= RECOVERY_RTOL * sup, f"recovered polynomial is off by {worst:.3e} (sup {sup:.3e})")
    if expected_k is not None:
        require(out.k == expected_k, f"detected k={out.k}, the generator changed {expected_k}")


def check_localization(f, best, ref, rep) -> None:
    """omega_measure <= omega_bound; omega_measure agrees with the share of a
    dense uniform grid where |f - p_L1| >= e*/2, within one grid step per
    boundary; the minimax error agrees with the dense max of its own residual
    and is no larger than the dense max |f - p_L1|."""
    require(rep.omega_measure <= rep.omega_bound, f"omega {rep.omega_measure!r} > bound {rep.omega_bound!r}")
    half = 0.5 * ref.error
    h = 2.0 / (OMEGA_POINTS - 1)
    inside = transitions = 0
    last = None
    best_max = mm_max = 0.0
    for x, fx in dense(f, -1.0, 1.0, OMEGA_POINTS):
        e1 = np.abs(fx - series_eval(best.polynomial, x))
        flag = e1 >= half
        inside += int(np.count_nonzero(flag))
        transitions += int(np.count_nonzero(flag[1:] != flag[:-1]))
        if last is not None:
            transitions += int(last != flag[0])
        last = flag[-1]
        best_max = max(best_max, float(np.max(e1)))
        mm_max = max(mm_max, float(np.max(np.abs(fx - series_eval(ref.polynomial, x)))))
    share = inside * h  # each grid point owns one cell of width h (half at the ends)
    require(
        abs(share - rep.omega_measure) <= h * (transitions + 2),
        f"omega {rep.omega_measure!r} vs dense share {share!r} ({transitions} boundaries, step {h:.2e})",
    )
    require(
        abs(mm_max - ref.error) <= MINIMAX_RTOL * ref.error,
        f"minimax error {ref.error!r} vs dense max of its residual {mm_max!r}",
    )
    require(ref.error <= best_max, f"minimax error {ref.error!r} exceeds the dense max |f - p_L1| {best_max!r}")
