"""Recovery of corrupted polynomials from grid samples.

Covers the four recovery mechanisms: the L0 identity argument, the discrete
l0 brute-force oracle, l1 minimization with its RIP sufficiency certificate,
and the continuous-L1 thresholds (global and centered variants), plus the
near-recovery factor for corrupted smooth functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .chebyshev import Basis, ChebSeries, ChebGrid, build_grid, chebvander_second
from .errors import DomainError, NotFound, SolverFailure, TooLarge
from .funcrep import FuncRep
from .lp import WeightedL1Fit, solve

__all__ = [
    "RipBound",
    "RecoveryCertificate",
    "RecoveryReport",
    "L0Recovery",
    "NearRecoveryFactor",
    "SweepResult",
    "null_space_basis",
    "rip_bound",
    "rip_bruteforce",
    "recover_l1",
    "recover_l0_oracle",
    "exact_recovery_threshold",
    "near_recovery_factor",
    "degree_sweep",
    "default_grid_size",
]

ENUMERATION_GUARD = 10**6
DETECT_TOL = 1e-11  # residual > DETECT_TOL * max|f(x_j)| marks a sample corrupted
CANDIDATE_POINTS = 20  # strided LP samples per unknown (n+1) that propose the candidate


def default_grid_size(n: int) -> int:
    """N such that N+1 = max(1000 + 50n, 5000) samples are used."""
    return max(1000 + 50 * n, 5000) - 1


def null_space_basis(N: int, n: int) -> np.ndarray:
    """Orthonormal basis V of the left null space of the scaled Vandermonde.

    V[i, l] = w_i * U_{n+1+l}(x_i) with w_i = sqrt(2/(N+2)) * sqrt(1-x_i^2),
    i.e. the trailing column block of the orthogonal matrix D*A. Read-only.
    """
    if not N > n >= 0:
        raise ValueError("need N > n >= 0")
    grid = build_grid(N)
    theta = grid.thetas  # x_i = cos(theta_i)
    ms = np.arange(n + 2, N + 2)  # U_{n+1}..U_N give sin(m theta), m = n+2..N+1
    V = np.sqrt(2.0 / (N + 2)) * np.sin(np.outer(theta, ms))
    V.setflags(write=False)
    return V


@dataclass(frozen=True)
class RipBound:
    delta: float
    sufficient: bool


def rip_bound(N: int, n: int, k: int) -> RipBound:
    """delta_k = 2(n+1)k/(N+2); sufficient iff N+1 > 6(n+1)k - 1 (delta < 1/3)."""
    if not (N >= n >= 0 and k >= 0):
        raise ValueError("need N >= n >= 0 and k >= 0")
    delta = 2.0 * (n + 1) * k / (N + 2)
    return RipBound(delta=delta, sufficient=N + 1 > 6 * (n + 1) * k - 1)


def rip_bruteforce(N: int, n: int, k: int) -> float:
    """Exact RIP constant of V^T over all supports of size k.

    max over |S| = k of max(sigma_max(B_S)^2 - 1, 1 - sigma_min(B_S)^2) where
    B_S collects the columns of V^T indexed by S.
    """
    if k == 0:
        return 0.0
    if k > N + 1:
        raise ValueError("support size exceeds the number of samples")
    if comb(N + 1, k) > ENUMERATION_GUARD:
        raise TooLarge(f"C({N + 1},{k}) supports exceed the {ENUMERATION_GUARD} guard")
    V = null_space_basis(N, n)  # rows of V are columns of V^T
    worst = 0.0
    for S in itertools.combinations(range(N + 1), k):
        G = V[list(S), :] @ V[list(S), :].T
        ev = np.linalg.eigvalsh(G)
        worst = max(worst, ev[-1] - 1.0, 1.0 - ev[0])
    return worst


@dataclass(frozen=True)
class RecoveryCertificate:
    """Evaluated recovery conditions; metadata-based fields are None when the
    corruption is unknown."""

    detected_k: int
    oversampling_condition: bool  # N+1 > 6(n+1)k - 1 for the detected k
    delta_detected: float
    support_measure_est: float
    l0_uniqueness_condition: bool | None = None  # true k <= (N-n)/2
    true_k: int | None = None
    support_measure_match: bool | None = None  # |supp(f - p)| ~ s at grid resolution
    continuous_threshold_condition: bool | None = None  # s < 1/(n+1)^2
    continuous_threshold: float | None = None
    strict_threshold: float | None = None  # stricter footnote variant 1/(4n^2)
    centered_condition: bool | None = None  # s < (1-z^2)^(1/4) n^(-3/2)/2, 1-z >= 1/n
    centered_threshold: float | None = None


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    recovered: ChebSeries
    corrupted_indices: np.ndarray
    k: int
    residual_max_off_support: float
    certificate: RecoveryCertificate
    exact: bool
    # |primal - dual objective| of the weighted-l1 LP whose fit was kept: the
    # strided candidate LP when its refit is exact, else the full-grid LP
    duality_gap: float
    lp_points: int  # the sample count of that LP
    grid: ChebGrid = field(repr=False)
    residuals: np.ndarray = field(repr=False)


def _cells(grid: ChebGrid) -> np.ndarray:
    """Midpoint-to-midpoint cell edges, one cell per grid sample."""
    x = grid.points
    inner = 0.5 * (x[:-1] + x[1:])
    return np.concatenate([[-1.0], inner, [1.0]])


def _grid_samples(source, N: int | None, n: int):
    if callable(source):
        N = default_grid_size(n) if N is None else N
        grid = build_grid(N)
        f = source if isinstance(source, FuncRep) else FuncRep(source)
        samples = f.eval(grid.points)
    else:
        samples = np.asarray(source, dtype=float)
        if N is None:
            N = len(samples) - 1
        elif N != len(samples) - 1:
            raise ValueError("N does not match the sample count")
        grid = build_grid(N)
    if len(samples) != N + 1:
        raise ValueError("need exactly N+1 samples")
    if not np.all(np.isfinite(samples)):
        raise DomainError("samples must be finite")
    return grid, samples


@dataclass(frozen=True, eq=False)
class _Fit:
    duality_gap: float
    lp_points: int
    coeffs: np.ndarray
    residuals: np.ndarray
    flagged: np.ndarray
    residual_off: float
    bound: RipBound
    exact: bool


def _fit_and_certify(grid: ChebGrid, samples, n: int, scale: float, stride: int) -> _Fit:
    """Solve the weighted l1 fit on every stride-th sample (weights scaled by
    stride), refit it by least squares on the samples it leaves clean (up to
    3 passes) so the coefficients reach working precision rather than
    LP-tolerance precision, and certify the refit on all N+1 samples: exact
    when it vanishes off the k flagged samples and N+1 > 6(n+1)k - 1, which
    makes it the unique l1 minimizer on the grid however the fit was found.
    """
    N = grid.size
    idx = np.arange(stride // 2, N + 1, stride)
    sol = solve(WeightedL1Fit(grid.points[idx], grid.weights[idx] * stride, samples[idx], n))
    U = chebvander_second(grid.points, n)
    coeffs = sol.coefficients.coeffs
    resid = samples - U @ coeffs
    flagged = np.abs(resid) > 1e-9 * scale
    for _ in range(3):
        clean = ~flagged
        if np.count_nonzero(clean) < 2 * (n + 1) or np.count_nonzero(flagged) > 0.49 * (N + 1):
            break
        refit, *_ = np.linalg.lstsq(U[clean], samples[clean], rcond=None)
        new_resid = samples - U @ refit
        new_flagged = np.abs(new_resid) > DETECT_TOL * scale
        coeffs, resid = refit, new_resid
        if np.array_equal(new_flagged, flagged):
            flagged = new_flagged
            break
        flagged = new_flagged

    flagged = np.abs(resid) > DETECT_TOL * scale
    off = resid[~flagged]
    resid_off = float(np.max(np.abs(off))) if off.size else 0.0
    bound = rip_bound(N, n, int(np.count_nonzero(flagged)))
    return _Fit(
        duality_gap=sol.duality_gap,
        lp_points=len(idx),
        coeffs=coeffs,
        residuals=resid,
        flagged=flagged,
        residual_off=resid_off,
        bound=bound,
        exact=resid_off <= DETECT_TOL * scale and bound.sufficient,
    )


def recover_l1(source, n: int, N: int | None = None) -> RecoveryReport:
    """l1 recovery of a (possibly corrupted) polynomial from grid samples.

    source: FuncRep, callable, or an array of N+1 samples taken on
    build_grid(N). Certificate-first: the weighted l1 fit is solved on every
    stride-th sample, stride = (N+1) // (CANDIDATE_POINTS (n+1)), and its
    refit is certified on all N+1 samples (see _fit_and_certify). Only when
    that refit is not exact, or the strided LP fails, is the fit solved on
    the full grid and refit the same way; a grid with stride < 2 goes
    straight to the full-grid LP. duality_gap and lp_points describe the LP
    whose fit was kept.
    """
    grid, samples = _grid_samples(source, N, n)
    N = grid.size
    if n > N:
        raise ValueError("need n <= N")
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    stride = (N + 1) // (CANDIDATE_POINTS * (n + 1))
    fit = None
    if stride >= 2:
        try:
            fit = _fit_and_certify(grid, samples, n, scale, stride)
        except SolverFailure:
            pass  # the full-grid LP decides
    if fit is None or not fit.exact:
        fit = _fit_and_certify(grid, samples, n, scale, 1)
    flagged, bound = fit.flagged, fit.bound
    k = int(np.count_nonzero(flagged))
    edges = _cells(grid)
    measure_est = float(np.sum((edges[1:] - edges[:-1])[flagged]))

    cert_kwargs = dict(
        detected_k=k,
        oversampling_condition=bound.sufficient,
        delta_detected=bound.delta,
        support_measure_est=measure_est,
    )
    corruption = source.corruption if isinstance(source, FuncRep) else None
    if corruption is not None:
        inside = corruption.contains(grid.points)
        true_k = int(np.count_nonzero(inside))
        s = corruption.measure
        zeta = corruption.zeta
        cell_w = float(np.max(edges[1:] - edges[:-1]))
        cert_kwargs.update(
            true_k=true_k,
            l0_uniqueness_condition=true_k <= (N - n) / 2,
            support_measure_match=abs(measure_est - s) <= (k + true_k + 2) * cell_w,
            continuous_threshold_condition=s < 1.0 / (n + 1) ** 2,
            continuous_threshold=1.0 / (n + 1) ** 2,
            strict_threshold=min(1.0, 1.0 / (4.0 * n * n)) if n > 0 else 1.0,
        )
        if n >= 1 and 1.0 - zeta >= 1.0 / n:
            thr = exact_recovery_threshold(n, "centered", zeta=zeta)
            cert_kwargs.update(centered_condition=s < thr, centered_threshold=thr)

    return RecoveryReport(
        recovered=ChebSeries(Basis.SECOND, fit.coeffs),
        corrupted_indices=np.flatnonzero(flagged),
        k=k,
        residual_max_off_support=fit.residual_off,
        certificate=RecoveryCertificate(**cert_kwargs),
        exact=fit.exact,
        duality_gap=fit.duality_gap,
        lp_points=fit.lp_points,
        grid=grid,
        residuals=fit.residuals,
    )


@dataclass(frozen=True, eq=False)
class L0Recovery:
    polynomial: ChebSeries
    discarded: tuple
    k: int


def recover_l0_oracle(samples, n: int, k_max: int) -> L0Recovery:
    """Smallest-k fit: enumerate discard sets by increasing cardinality and
    lexicographic order; the first degree-<=n fit agreeing with all kept
    samples to 1e-11 relative wins."""
    samples = np.asarray(samples, dtype=float)
    N = len(samples) - 1
    if n > N:
        raise ValueError("need n <= N")
    total = sum(comb(N + 1, k) for k in range(min(k_max, N + 1) + 1))
    if total > ENUMERATION_GUARD:
        raise TooLarge(f"{total} discard sets exceed the {ENUMERATION_GUARD} guard")
    grid = build_grid(N)
    U = chebvander_second(grid.points, n)
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    idx = np.arange(N + 1)
    for k in range(k_max + 1):
        if N + 1 - k < n + 1:
            break
        for discard in itertools.combinations(range(N + 1), k):
            keep = np.setdiff1d(idx, discard, assume_unique=True)
            c, *_ = np.linalg.lstsq(U[keep], samples[keep], rcond=None)
            if np.max(np.abs(samples[keep] - U[keep] @ c)) <= 1e-11 * scale:
                return L0Recovery(
                    polynomial=ChebSeries(Basis.SECOND, c),
                    discarded=tuple(discard),
                    k=k,
                )
    raise NotFound(f"no degree-{n} fit discards at most {k_max} samples")


def exact_recovery_threshold(n: int, variant: str = "global", zeta: float | None = None) -> float:
    """Corruption-measure threshold guaranteeing exact L1 recovery.

    global: s < 1/(n+1)^2. centered: s < (1-zeta^2)^(1/4) n^(-3/2)/2, valid
    for n >= 1 and 1 - zeta >= 1/n.
    """
    if variant == "global":
        if n < 0:
            raise ValueError("need n >= 0")
        return 1.0 / (n + 1) ** 2
    if variant == "centered":
        if zeta is None:
            raise ValueError("centered variant needs zeta")
        if n < 1 or 1.0 - zeta < 1.0 / n:
            raise DomainError("centered threshold needs n >= 1 and 1 - zeta >= 1/n")
        return (1.0 - zeta * zeta) ** 0.25 * n**-1.5 / 2.0
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class NearRecoveryFactor:
    factor: float
    near_best_constant: float


def near_recovery_factor(s: float, n: int) -> NearRecoveryFactor:
    """Near-recovery constants: ||p_n^L1 - p*||_1 <= factor * ||f0 - p*||_1,
    and 1 + factor bounds ||f0 - p_n^L1||_1 against the best possible."""
    if s * (n + 1) ** 2 >= 1.0:
        raise DomainError("need s (n+1)^2 < 1")
    factor = 4.0 / (2.0 - s * (n + 1) ** 2)
    return NearRecoveryFactor(factor=factor, near_best_constant=1.0 + factor)


@dataclass(frozen=True, eq=False)
class SweepResult:
    found: int | None
    reports: list


def degree_sweep(source, n_max: int, N: int | None = None) -> SweepResult:
    """Increase n from 0, stopping at the first degree whose report is exact."""
    reports = []
    for n in range(n_max + 1):
        rep = recover_l1(source, n, N=N)
        reports.append(rep)
        if rep.exact:
            return SweepResult(found=n, reports=reports)
    return SweepResult(found=None, reports=reports)
