"""Best L1 polynomial approximation on [-1, 1].

Pipeline: try the grid interpolant (optimal exactly when its residual
vanishes or changes sign at all the interpolation nodes); otherwise solve a
weighted-l1 LP on 10(n+1) grid points for an initial guess; when its
residual vanishes on most of those samples, run the corrupted-polynomial
detector, recover_l1 on the full default grid, and exit early if it
certifies a recovery (its LP runs on about 20(n+1) strided grid samples, and on
the full grid only when that fit's refit is not exact); refine the LP mesh
around the residual roots (20(n+1) points on every path), and finish with
Newton's method on the sign-integral optimality system

    mu_j(c) = integral sign(f - sum c_t U_t) U_j = 0,  j = 0..n.

mu is minus the gradient of c -> ||f - p_c||_1, whose Hessian at a residual
with simple sign-changing roots r_i is the PSD matrix
2 V^T diag(1/|e'(r_i)|) V; the Newton update is c <- c + H^{-1} mu with
safeguards (H = I on vanishing e', Tikhonov on ill-conditioning, and
objective-based step halving).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chebyshev import (
    Basis,
    ChebSeries,
    build_grid,
    chebvander_second,
    gap_integrals,
    gap_moments,
    gap_values,
    interpolate_on_grid,
    secondkind_segment_integrals,
)
from .errors import StepFailure
from .funcrep import FuncRep, Residual, segment_l1
from .lp import WeightedL1Fit, solve
from .recovery import recover_l1

__all__ = [
    "Path",
    "NewtonState",
    "BestL1Result",
    "refine_mesh",
    "make_state",
    "newton_step",
    "near_best_factor",
    "best_l1",
]

EPRIME_TINY = 1e-13
COND_LIMIT = 1e14
MAX_HALVINGS = 30
MAX_NEWTON_STEPS = 50
# LP sizes per unknown (n+1): the start LP's grid, the refine LP's mesh, and
# the clean start samples above which the full-grid detector runs (a smooth
# target leaves about n+1, a corrupted polynomial nearly all of them)
START_POINTS = 10
REFINE_POINTS = 20
DETECT_CLEAN = 2


class Path(enum.Enum):
    INTERPOLANT_SHORTCUT = "interpolant_shortcut"
    CORRUPTED_POLYNOMIAL = "corrupted_polynomial"
    NEWTON_CONVERGED = "newton_converged"
    NEWTON_STALLED = "newton_stalled"


def near_best_factor(mu: np.ndarray, n: int) -> float | None:
    """1 / (1 - (2/pi)(n+2)^2 max|mu|) when the bound bites, else None."""
    load = (2.0 / np.pi) * (n + 2) ** 2 * float(np.max(np.abs(mu)))
    if load >= 1.0:
        return None
    return 1.0 / (1.0 - load)


@dataclass(frozen=True, eq=False)
class NewtonState:
    k: int
    coeffs: ChebSeries
    roots: np.ndarray  # sign-changing roots of the residual
    eprime: np.ndarray  # residual derivative at the sign-changing roots
    mu: np.ndarray
    objective: float
    optimality: float
    mu_noise: float
    halvings: int = 0
    used_identity: bool = False
    regularized: bool = False


def make_state(f: FuncRep, c: ChebSeries, n: int | None = None, k: int = 0, **flags) -> NewtonState:
    """Newton state at c. mu holds the optimality integrals of the residual
    f - c for U_0..U_n: the sum over sign segments of sign * integral U_j,
    exactly."""
    n = c.degree if n is None else n
    c = c.to_basis(Basis.SECOND)
    res = Residual(f, c)
    bounds, signs = res.sign_segments()
    roots = res.sign_change_roots
    mu = secondkind_segment_integrals(n, bounds) @ signs
    eprime = res.derivative(roots) if roots.size else np.empty(0)
    # attainable-accuracy estimate: each root carries ~eps*scale/|e'| of
    # location noise, and dmu_j/dr = 2 U_j(r)
    if roots.size:
        Umax = np.max(np.abs(chebvander_second(roots, n)), axis=1)
        dr = np.finfo(float).eps * f.value_scale / np.maximum(np.abs(eprime), 1e-300)
        noise = float(np.sum(2.0 * Umax * np.minimum(dr, 1.0)))
    else:
        noise = 0.0
    return NewtonState(
        k=k,
        coeffs=c,
        roots=roots,
        eprime=eprime,
        mu=mu,
        objective=res.l1(),
        optimality=float(np.max(np.abs(mu))),
        mu_noise=noise,
        **flags,
    )


GAP_SAMPLES = 8  # theta-uniform residual samples per gap between nodes


def _gap_signs(res: Residual, m: int):
    """Residual sign in each of the m gaps between the nodes cos(k pi/m),
    k = 1..m-1 (and the two end gaps against +-1), ascending, or None when
    the pattern cannot be certified.

    The residual vanishes at the nodes by construction, so the candidate
    crossings are known: each gap is sampled at GAP_SAMPLES theta-uniform
    interior points, samples below twice the evaluation-noise bound plus the
    rounding bound of the transform that evaluates p are discarded (their
    sign is not meaningful), and a certificate requires every usable sample
    in a gap to agree. No rootfinding is involved, which keeps the test
    reliable when the residual amplitude approaches the noise floor.
    """
    x, p_vals, transform_noise = gap_values(res.p, m, GAP_SAMPLES)
    vals = res.f.eval(x.ravel()).reshape(x.shape) - p_vals
    usable = np.abs(vals) > 2.0 * res.eval_noise + transform_noise
    positive = np.all(~usable | (vals > 0), axis=1)
    negative = np.all(~usable | (vals < 0), axis=1)
    # a gap with no usable sample passes both tests, a mixed one neither
    if not np.all(positive != negative):
        return None
    return np.where(positive, 1.0, -1.0)


def _certified_interpolant(f: FuncRep, n: int):
    """(polynomial, m, gap signs) when a grid interpolant is certified optimal
    by its sign pattern on the m gaps between the nodes cos(k pi/m), or
    (polynomial, None, None) when its residual is numerically zero (f is a
    degree <= n polynomial), else None.

    Phase 1 (m = n+2): the n+1-node interpolant is optimal iff its residual
    changes sign at every node and nowhere else. Phase 2 (m = n+3, symmetric
    cases): when the n+2-node interpolant happens to have degree <= n, the
    same test against the n+2 nodes certifies it, since sign(e) =
    +-sign(U_{n+2}) makes sign(e) orthogonal to P_{n+1}, a superset of P_n.
    """
    p = interpolate_on_grid(f.eval, n)
    res = Residual(f, p)
    if res.negligible:
        return p, None, None
    signs = _gap_signs(res, n + 2)
    if signs is not None and _alternating(signs):
        return p, n + 2, signs
    q = interpolate_on_grid(f.eval, n + 1)
    if abs(q.coeffs[n + 1]) <= 1e-12 * q.coeff_max:
        q2 = ChebSeries(Basis.SECOND, q.coeffs[: n + 1])
        res2 = Residual(f, q2)
        if not res2.negligible:
            signs = _gap_signs(res2, n + 3)
            if signs is not None and _alternating(signs):
                return q2, n + 3, signs
    return None


def _alternating(signs: np.ndarray) -> bool:
    return bool(np.all(signs[:-1] * signs[1:] < 0))


def refine_mesh(roots, N: int):
    """Midpoint mesh refined around the roots: ~N/2 points across the union
    of [r_i - 4/N, r_i + 4/N] and ~N/2 points on the complement; weights are
    the midpoint-rule cell widths (summing to 2)."""
    delta = 4.0 / N
    merged = []
    for r in sorted(float(r) for r in roots):
        lo, hi = max(r - delta, -1.0), min(r + delta, 1.0)
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        elif hi > lo:
            merged.append((lo, hi))
    complement = []
    prev = -1.0
    for lo, hi in merged:
        if lo > prev:
            complement.append((prev, lo))
        prev = hi
    if prev < 1.0:
        complement.append((prev, 1.0))

    def fill(intervals, budget):
        pts, wts = [], []
        total = sum(hi - lo for lo, hi in intervals)
        if not intervals or total == 0.0 or budget <= 0:
            return pts, wts
        for lo, hi in intervals:
            m = max(1, int(round(budget * (hi - lo) / total)))
            h = (hi - lo) / m
            pts.extend(lo + (np.arange(m) + 0.5) * h)
            wts.extend([h] * m)
        return pts, wts

    if merged:
        p1, w1 = fill(merged, N // 2)
        p2, w2 = fill(complement, N - len(p1))
    else:
        p1, w1 = [], []
        p2, w2 = fill(complement, N)
    pts = np.array(p1 + p2)
    wts = np.array(w1 + w2)
    order = np.argsort(pts)
    return pts[order], wts[order]


def newton_step(state: NewtonState, f: FuncRep) -> NewtonState:
    """One safeguarded Newton step on the optimality system."""
    n = state.coeffs.degree
    scale = max(f.value_scale, state.coeffs.coeff_max)
    used_identity = regularized = False
    if state.roots.size == 0 or np.any(np.abs(state.eprime) < EPRIME_TINY * scale):
        H = np.eye(n + 1)
        used_identity = True
    else:
        V = chebvander_second(state.roots, n)
        H = 2.0 * (V.T * (1.0 / np.abs(state.eprime))) @ V
        if np.linalg.cond(H) > COND_LIMIT:
            H = H + (1e-10 * np.linalg.norm(H, 2)) * np.eye(n + 1)
            regularized = True
    delta = np.linalg.solve(H, state.mu)
    # accept a step that raises ||e||_1 by at most rounding
    slack = 1e-14 * f.l1_norm
    step = 1.0
    for halving in range(MAX_HALVINGS + 1):
        cand = ChebSeries(Basis.SECOND, state.coeffs.coeffs + step * delta)
        new = make_state(
            f,
            cand,
            n=n,
            k=state.k + 1,
            halvings=halving,
            used_identity=used_identity,
            regularized=regularized,
        )
        if new.objective <= state.objective + slack:
            return new
        step *= 0.5
    raise StepFailure(f"no acceptable step after {MAX_HALVINGS} halvings")


@dataclass(frozen=True, eq=False)
class BestL1Result:
    polynomial: ChebSeries
    path: Path
    trace: list  # (iteration, objective, optimality-or-None)
    near_best_factor: float | None
    l1_error: float
    mu: np.ndarray | None
    stopping_tol: float | None = None
    relaxed: bool = False
    report: object = None  # RecoveryReport on the corrupted-polynomial path
    # |primal - dual objective| of the LP whose solution starts Newton (the
    # detector's kept LP on the corrupted-polynomial path; None on the
    # shortcut), and that LP's sample count
    duality_gap: float | None = None
    lp_points: int | None = None


def best_l1(
    f: FuncRep,
    n: int,
    *,
    tol: float = 1e-14,
    force_newton: bool = False,
) -> BestL1Result:
    """Full best-L1 driver; see the module docstring for the pipeline."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if not force_newton:
        certified = _certified_interpolant(f, n)
        if certified is not None:
            p, m, signs = certified
            if m is None:
                return BestL1Result(
                    polynomial=p,
                    path=Path.INTERPOLANT_SHORTCUT,
                    trace=[(0, 0.0, 0.0)],
                    near_best_factor=1.0,
                    l1_error=0.0,
                    mu=np.zeros(n + 1),
                )
            # the gap bounds are the nodes cos(k pi/m), so mu and the gap
            # integrals of p are one sine transform each
            bounds = np.concatenate([[-1.0], build_grid(m - 2).points, [1.0]])
            mu = gap_moments(signs, n)
            objective = segment_l1(f, bounds, gap_integrals(p.coeffs, m))
            return BestL1Result(
                polynomial=p,
                path=Path.INTERPOLANT_SHORTCUT,
                trace=[(0, objective, float(np.max(np.abs(mu))))],
                near_best_factor=near_best_factor(mu, n),
                l1_error=objective,
                mu=mu,
            )

    rep = recover_l1(f, n, N=START_POINTS * (n + 1) - 1)
    if rep.grid.size + 1 - rep.k > DETECT_CLEAN * (n + 1):
        # the fit vanishes on most samples, as on a corrupted polynomial:
        # detect and certify on the full default grid
        rep = recover_l1(f, n)
        if rep.exact and not force_newton:
            err = Residual(f, rep.recovered).l1()
            return BestL1Result(
                polynomial=rep.recovered,
                path=Path.CORRUPTED_POLYNOMIAL,
                trace=[(0, err, None)],
                near_best_factor=None,
                l1_error=err,
                mu=None,
                report=rep,
                duality_gap=rep.duality_gap,
                lp_points=rep.lp_points,
            )
    pts, wts = refine_mesh(Residual(f, rep.recovered).roots, REFINE_POINTS * (n + 1))
    start = solve(WeightedL1Fit(pts, wts, f.eval(pts), n))

    f_l1 = f.l1_norm
    state = make_state(f, start.coefficients, n=n)
    # stopping tolerance: the requested tol, relaxed by the proxy tolerance
    # when the representation of f is itself limited, and by the estimated
    # attainable mu accuracy (root-location noise)
    proxy_term = 10.0 * f.proxy_tol * f_l1 if not f.proxy.resolved else 0.0
    tol_abs = max(tol * f_l1, proxy_term, 4.0 * state.mu_noise)
    trace = [(0, state.objective, state.optimality)]
    while state.optimality >= tol_abs and state.k < MAX_NEWTON_STEPS:
        state = newton_step(state, f)
        trace.append((state.k, state.objective, state.optimality))
        tol_abs = max(tol_abs, 4.0 * state.mu_noise)
    converged = state.optimality < tol_abs
    relaxed = tol_abs > tol * f_l1 * (1.0 + 1e-12)
    return BestL1Result(
        polynomial=state.coeffs,
        path=Path.NEWTON_CONVERGED if converged else Path.NEWTON_STALLED,
        trace=trace,
        near_best_factor=near_best_factor(state.mu, n),
        l1_error=state.objective,
        mu=state.mu,
        stopping_tol=tol_abs,
        relaxed=relaxed,
        duality_gap=start.duality_gap,
        lp_points=len(pts),
    )
