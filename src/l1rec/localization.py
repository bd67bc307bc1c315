"""Error localization: minimax reference, Omega_n measurement, case studies.

Omega_n is the set where the best-L1 error is at least half the minimax
error; its measure is bounded by 2 ||f - p^L1||_1 / ||f - p^Linf||_inf. The
minimax reference polynomial comes from a Remez exchange. Its extrema are
taken from a composite grid and polished by one golden-section search run on
every sign run of the residual at once, so each step is one vectorized
residual evaluation and no derivative is needed (robust for kinks and endpoint
singularities). Each exchange finds the polynomial and the level by one
linear solve of the reference system in the first-kind basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import catalog_function
from .chebyshev import Basis, ChebSeries, tcheb_values
from .errors import ExchangeStalled
from .funcrep import Corruption, FuncRep, Residual
from .newton import BestL1Result, best_l1

__all__ = [
    "MinimaxResult",
    "LocalizationReport",
    "SqrtCaseReport",
    "AbsCaseReport",
    "ConcentrationReport",
    "minimax",
    "omega_measure",
    "sqrt_case",
    "abs_case",
    "concentration_ratio",
    "sqrt_u_coefficient",
]

ABS_BERNSTEIN_BETA = 0.28017  # midpoint of the 0.28016..0.28018 bracket
MAX_EXCHANGES = 100


@dataclass(frozen=True, eq=False)
class MinimaxResult:
    """The minimax error lies in [level, max_error]: the reference level |h|
    bounds it from below, the largest located extremum from above; error is
    their midpoint."""

    polynomial: ChebSeries
    error: float
    reference: np.ndarray
    iterations: int
    level: float
    max_error: float


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(g, a, b, xtol):
    """Golden-section maximization of the vectorized g on every bracket
    [a_i, b_i] at once, each step one call of g on all brackets, until
    b - a <= xtol on every bracket. Returns the better interior point of
    each bracket and g there."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    gc, gd = g(c), g(d)
    while np.any(b - a > xtol):
        left = gc > gd  # the maximum lies in [a, d], else in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, g_kept = np.where(left, c, d), np.where(left, gc, gd)
        new = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        g_new = g(new)
        c, gc = np.where(left, new, kept), np.where(left, g_new, g_kept)
        d, gd = np.where(left, kept, new), np.where(left, g_kept, g_new)
    better = gc >= gd
    return np.where(better, c, d), np.where(better, gc, gd)


def _alternating_extrema(res: Residual, ref: np.ndarray):
    """One extremum candidate per sign run of the residual.

    Candidates come from a composite grid (Chebyshev-distributed points in
    each gap of the current reference, plus endpoints and breakpoints). The
    best point of each sign run is then polished by maximizing the signed
    residual over its grid neighbours' bracket, all runs in lockstep
    (_golden_max), and kept when polishing does not beat it. Avoids
    derivative rootfinding entirely, which matters for targets with endpoint
    singularities.
    """
    gaps = np.unique(
        np.concatenate([[-1.0], ref, [1.0], np.asarray(res.f.breakpoints)])
    )
    local = np.cos(np.pi * (2 * np.arange(16) + 1) / 32.0)[::-1]
    grid = (gaps[:-1, None] + 0.5 * (np.diff(gaps))[:, None] * (local + 1.0)).ravel()
    grid = np.unique(np.concatenate([grid, gaps]))
    vals = res(grid)

    runs = []  # (start, end) index ranges of constant sign
    signs = np.sign(vals)
    start = 0
    for i in range(1, len(grid) + 1):
        if i == len(grid) or (signs[i] != signs[start] and signs[i] != 0):
            if signs[start] != 0:
                runs.append((start, i))
            start = i
    j = np.array([lo + int(np.argmax(np.abs(vals[lo:hi]))) for lo, hi in runs], dtype=int)
    s = signs[j]
    a = grid[np.maximum(j - 1, 0)]
    b = grid[np.minimum(j + 1, len(grid) - 1)]
    xs, gs = _golden_max(lambda t: s * res(t), a, b, np.maximum(1e-14, 1e-12 * (b - a)))
    better = gs > s * vals[j]
    xs, vs = np.where(better, xs, grid[j]), np.where(better, s * gs, vals[j])
    keep_x, keep_v = [], []
    for xi, vi in zip(xs, vs):
        if keep_v and np.sign(vi) == np.sign(keep_v[-1]):
            if abs(vi) > abs(keep_v[-1]):
                keep_x[-1], keep_v[-1] = xi, vi
        else:
            keep_x.append(xi)
            keep_v.append(vi)
    return np.asarray(keep_x), np.asarray(keep_v)


def minimax(f: FuncRep, n: int, tol: float = 1e-9) -> MinimaxResult:
    """Remez exchange for the degree <= n minimax approximant.

    The returned error is certified within tol relatively: the reference
    level |h| (`level`) is a lower bound and the largest located extremum
    (`max_error`) a matching upper bound at convergence, and `error` is
    their midpoint. The first reference is the extrema of T_{n+2} without
    +1, since a reference symmetric about 0 forces h = 0 for even f at even
    n and odd f at odd n.
    n must be a non-negative integer and tol lie in (0, 1).
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"degree must be a non-negative integer, got {n!r}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    m = n + 2
    ref = np.cos(np.pi * np.arange(m, 0, -1) / m)
    sigma = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    for it in range(1, MAX_EXCHANGES + 1):
        # [T_0..T_n at ref | sigma] [a; h] = f(ref)
        sol = np.linalg.solve(np.column_stack([tcheb_values(n, ref).T, sigma]), f.eval(ref))
        p, h = ChebSeries(Basis.FIRST, sol[:-1]), abs(float(sol[-1]))
        res = Residual(f, p)
        if res.negligible:
            return MinimaxResult(p, 0.0, ref, it, 0.0, 0.0)
        ex, ev = _alternating_extrema(res, ref)
        errmax = float(np.max(np.abs(ev)))
        if errmax - h <= tol * errmax:
            return MinimaxResult(p, 0.5 * (errmax + h), ref, it, h, errmax)
        if len(ex) < m:
            raise ExchangeStalled(
                f"found {len(ex)} alternating extrema, need {m} (iteration {it})"
            )
        if len(ex) > m:
            imax = int(np.argmax(np.abs(ev)))
            windows = [
                (s, s + m) for s in range(0, len(ex) - m + 1) if s <= imax < s + m
            ]
            pick = max(windows, key=lambda sw: np.min(np.abs(ev[sw[0] : sw[1]])))
            ex, ev = ex[pick[0] : pick[1]], ev[pick[0] : pick[1]]
        ref = ex
        sigma = np.sign(ev)
    raise ExchangeStalled(f"no convergence in {MAX_EXCHANGES} exchanges")


@dataclass(frozen=True, eq=False)
class LocalizationReport:
    n: int
    linf_error: float
    linf_level: float  # the minimax bracket [linf_level, linf_max] around linf_error
    linf_max: float
    l1_error: float
    omega_measure: float
    omega_bound: float  # 2 l1_error / linf_error
    omega_intervals: tuple
    best_path: str


def omega_measure(
    f: FuncRep,
    n: int,
    *,
    best: BestL1Result | None = None,
    reference: MinimaxResult | None = None,
    minimax_tol: float = 1e-9,
) -> LocalizationReport:
    """Measure Omega_n = {x : |f - p^L1| >= linf_error / 2}."""
    best = best_l1(f, n) if best is None else best
    reference = minimax(f, n, tol=minimax_tol) if reference is None else reference
    cstar = reference.error
    res = Residual(f, best.polynomial)
    half = 0.5 * cstar
    # |e| = half where f - (p -+ half) = e +- half vanishes
    crossings = [
        Residual(f, best.polynomial - ChebSeries(Basis.SECOND, [s])).roots for s in (-half, half)
    ]
    pts = np.unique(np.concatenate([[-1.0], *crossings, [1.0]]))
    mids = 0.5 * (pts[:-1] + pts[1:])
    inside = np.abs(res(mids)) >= half
    intervals = []
    for (a, b), flag in zip(zip(pts[:-1], pts[1:]), inside):
        if not flag:
            continue
        if intervals and intervals[-1][1] == a:
            intervals[-1] = (intervals[-1][0], b)
        else:
            intervals.append((a, b))
    measure = float(sum(b - a for a, b in intervals))
    return LocalizationReport(
        n=n,
        linf_error=cstar,
        linf_level=reference.level,
        linf_max=reference.max_error,
        l1_error=best.l1_error,
        omega_measure=measure,
        omega_bound=2.0 * best.l1_error / cstar,
        omega_intervals=tuple(intervals),
        best_path=best.path.value,
    )


def sqrt_u_coefficient(j: int) -> float:
    """U-expansion coefficient b_j of sqrt(1-x^2): -8/((j-1)(j+1)(j+3) pi)
    for even j (b_0 = 8/(3 pi)), zero for odd j."""
    if j % 2:
        return 0.0
    return -8.0 / ((j - 1) * (j + 1) * (j + 3) * np.pi)


def _dirichlet_lebesgue(n: int) -> float:
    """sigma_n = (1/pi) int_0^pi |sin((n+1/2)t)| / sin(t/2) dt by piecewise
    Gauss quadrature between the kernel zeros."""
    freq = n + 0.5
    zeros = np.arange(0, n + 1) * np.pi / freq
    edges = np.concatenate([zeros, [np.pi]])
    gx, gw = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (a + b) + 0.5 * (b - a) * gx
        vals = np.abs(np.sin(freq * t)) / np.sin(0.5 * t)
        total += 0.5 * (b - a) * float(np.dot(gw, vals))
    return total / np.pi


@dataclass(frozen=True, eq=False)
class SqrtCaseReport:
    n: int
    l1_upper: float  # 64 / (pi (n+1)^3)
    proj_endpoint: float  # 2 / (pi (n+1))
    sigma_n: float
    omega_upper: float  # 64 (1 + sigma_n) / (n+1)^2
    shortcut_taken: bool
    measured_l1: float | None


def sqrt_case(n: int, measured: bool = True) -> SqrtCaseReport:
    """Closed-form localization quantities for sqrt(1 - x^2) at even n."""
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    sigma = _dirichlet_lebesgue(n)
    out = best_l1(catalog_function("sqrt1mx2"), n) if measured else None
    return SqrtCaseReport(
        n=n,
        l1_upper=64.0 / (np.pi * (n + 1) ** 3),
        proj_endpoint=2.0 / (np.pi * (n + 1)),
        sigma_n=sigma,
        omega_upper=64.0 * (1.0 + sigma) / (n + 1) ** 2,
        shortcut_taken=(out is not None and out.path.value == "interpolant_shortcut"),
        measured_l1=None if out is None else out.l1_error,
    )


@dataclass(frozen=True, eq=False)
class AbsCaseReport:
    n: int
    l1_asymptotic: float  # pi^2 / (4 n^2)
    bernstein_linf: float  # beta / n, beta = 0.28017 (Bernstein's constant)
    omega_asymptotic_bound: float  # 2 l1_asymptotic / bernstein_linf = pi^2 / (2 beta n)
    measured_l1: float | None
    measured_linf: float | None
    l1_ratio: float | None


def abs_case(n: int, measured: bool = True) -> AbsCaseReport:
    """Asymptotic and measured localization quantities for |x|."""
    if n < 1:
        raise ValueError("need n >= 1")
    l1_asym = np.pi**2 / (4.0 * n * n)
    measured_l1 = measured_linf = ratio = None
    if measured:
        f = catalog_function("absx")
        measured_l1 = best_l1(f, n).l1_error
        measured_linf = minimax(f, n, tol=1e-8).error
        ratio = measured_l1 / l1_asym
    return AbsCaseReport(
        n=n,
        l1_asymptotic=l1_asym,
        bernstein_linf=ABS_BERNSTEIN_BETA / n,
        omega_asymptotic_bound=np.pi**2 / (2.0 * ABS_BERNSTEIN_BETA * n),
        measured_l1=measured_l1,
        measured_linf=measured_linf,
        l1_ratio=ratio,
    )


@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    ratio: float
    measure: float
    lemma_bound: float  # s (n+1)^2 / 2
    centered_bound: float | None  # s n^(3/2) / (1 - zeta^2)^(1/4)


def concentration_ratio(p: ChebSeries, intervals) -> ConcentrationReport:
    """How much of the mass of |p| sits inside the given disjoint intervals.

    Every mass is the integral of p between consecutive bounds: +-1, the
    sign-changing roots of p and the interval endpoints."""
    support = Corruption(intervals)
    f = FuncRep.from_series(p)
    roots = Residual(f, ChebSeries(Basis.SECOND, [0.0])).sign_change_roots
    bounds = np.unique(np.concatenate([[-1.0, 1.0], roots, np.ravel(support.intervals)]))
    masses = np.abs(f.proxy.segment_integrals(bounds))
    inside = support.contains(0.5 * (bounds[:-1] + bounds[1:]))
    total = float(np.sum(masses))
    mass = float(np.sum(masses[inside]))
    s = support.measure
    n = p.trimmed_degree
    lemma = s * (n + 1) ** 2 / 2.0
    appendix = None
    if support.intervals and n >= 1:
        zeta = support.zeta
        if 1.0 - zeta >= 1.0 / n:
            appendix = s * n**1.5 / (1.0 - zeta * zeta) ** 0.25
    return ConcentrationReport(
        ratio=mass / total if total > 0 else 0.0,
        measure=s,
        lemma_bound=lemma,
        centered_bound=appendix,
    )
