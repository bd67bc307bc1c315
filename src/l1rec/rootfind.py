"""Real rootfinding on [-1, 1] via colleague-matrix eigenvalues.

Explicit series of degree <= 50 go straight to the colleague matrix; anything
larger (or any black-box residual) is re-expanded adaptively on subintervals,
bisecting whenever the local degree exceeds 50, with a hard budget of 2^12
subintervals. Roots are Newton-polished, verified against the residual scale,
and deduplicated at 1e-12 spacing.
"""

from __future__ import annotations

import numpy as np

from .chebyshev import Basis, ChebSeries
from .errors import SubdivisionLimit
from .proxy import SPLIT_RATIO, PiecewiseCheb, fit_on_interval

__all__ = ["colleague_roots", "roots_in_interval", "sign_changing"]

COLLEAGUE_DEGREE = 50
MAX_SUBINTERVALS = 2**12
MIN_WIDTH = 1e-12
DEDUP_TOL = 1e-12
RESID_TOL = 1e-11


def colleague_roots(first_coeffs: np.ndarray) -> np.ndarray:
    """All complex roots of sum a_k T_k from its colleague matrix."""
    a = np.asarray(first_coeffs, dtype=float)
    d = len(a) - 1
    if d <= 0:
        return np.empty(0, dtype=complex)
    if d == 1:
        return np.array([-a[0] / a[1]], dtype=complex)
    M = np.zeros((d, d))
    M[1, 0] = 1.0
    for k in range(1, d - 1):
        M[k - 1, k] = 0.5
        M[k + 1, k] = 0.5
    M[:, d - 1] = -a[:d] / (2.0 * a[d])
    M[d - 2, d - 1] += 0.5
    return np.linalg.eigvals(M)


def _real_roots_of_series(series: ChebSeries, scale: float) -> np.ndarray:
    """Real roots of a (local-coordinate) series in [-1, 1], polished."""
    first = series.to_basis(Basis.FIRST).trimmed(1e-15 * max(scale, series.coeff_max))
    if first.trimmed_degree == 0:
        return np.empty(0)
    ev = colleague_roots(first.coeffs)
    # imag tolerance 1e-6: eigenvalues of touching (even-multiplicity) roots
    # split by ~sqrt(backward error), often into conjugate pairs; genuinely
    # complex pairs admitted here are culled by the residual check later
    keep = (np.abs(ev.imag) <= 1e-6) & (ev.real >= -1.0 - 1e-8) & (ev.real <= 1.0 + 1e-8)
    roots = np.clip(ev.real[keep], -1.0, 1.0)
    if roots.size == 0:
        return roots
    dseries = first.derivative()
    for _ in range(3):
        fr = first(roots)
        dfr = dseries(roots)
        step = np.where(np.abs(dfr) > 1e-300, fr / np.where(dfr == 0.0, 1.0, dfr), 0.0)
        roots = np.clip(roots - step, -1.0, 1.0)
    return roots


def _dedup(roots: np.ndarray, tol: float = DEDUP_TOL) -> np.ndarray:
    if roots.size == 0:
        return roots
    roots = np.sort(roots)
    groups = [[roots[0]]]
    for r in roots[1:]:
        if r - groups[-1][-1] <= tol:
            groups[-1].append(r)
        else:
            groups.append([r])
    return np.array([float(np.mean(g)) for g in groups])


def _recurse(fn, a, b, scale, budget, out, noise_floor=0.0):
    """Collect roots of fn on [a, b]; fn takes global coordinates."""
    abs_floor = max(1e-15 * scale, noise_floor)
    # plateau_rel: evaluation noise (cancellation near singular endpoints,
    # Clenshaw rounding of high-degree subtrahends) can stall the tail above
    # the strict tolerance at any subdivision depth; a piece resolved to 5%
    # of its own local size whose fit is stable across degree doubling cannot
    # hide a sign change, and every root is re-polished and verified against
    # the raw evaluator afterwards
    series, ok = fit_on_interval(
        fn,
        a,
        b,
        1e-13,
        abs_floor=abs_floor,
        max_degree=64,
        allow_plateau=True,
        plateau_rel=0.05,
    )
    if ok:
        trimmed = series.trimmed(max(1e-14 * series.coeff_max, abs_floor))
        if trimmed.coeff_max <= 4.0 * abs_floor:
            return  # numerically zero piece: no isolated roots
        if trimmed.trimmed_degree <= COLLEAGUE_DEGREE:
            local = _real_roots_of_series(trimmed, scale)
            out.extend(0.5 * (a + b) + 0.5 * (b - a) * local)
            return
    if b - a <= MIN_WIDTH:
        fa, fb = float(fn(np.array([a]))[0]), float(fn(np.array([b]))[0])
        if fa == 0.0:
            out.append(a)
        if fb == 0.0:
            out.append(b)
        if fa * fb < 0.0:
            out.append(0.5 * (a + b))
        return
    if budget[0] <= 0:
        raise SubdivisionLimit(
            f"rootfinding exceeded {MAX_SUBINTERVALS} subintervals"
        )
    budget[0] -= 1
    mid = a + (b - a) * SPLIT_RATIO
    _recurse(fn, a, mid, scale, budget, out, noise_floor)
    _recurse(fn, mid, b, scale, budget, out, noise_floor)


def _polish(fn, derivative, roots, lo, hi):
    if roots.size == 0 or derivative is None:
        return roots
    r = roots.copy()
    fr = np.asarray(fn(r), dtype=float)
    for _ in range(3):
        dr = np.asarray(derivative(r), dtype=float)
        safe = np.abs(dr) > 1e-300
        step = np.where(safe, fr / np.where(safe, dr, 1.0), 0.0)
        cand = np.clip(r - step, lo, hi)
        fc = np.asarray(fn(cand), dtype=float)
        better = np.abs(fc) <= np.abs(fr)
        r = np.where(better, cand, r)
        fr = np.where(better, fc, fr)
    return r


def roots_in_interval(
    obj,
    a: float = -1.0,
    b: float = 1.0,
    *,
    breakpoints=(),
    derivative=None,
    scale: float | None = None,
    noise_floor: float = 0.0,
) -> np.ndarray:
    """All real roots of obj in [a, b] subseteq [-1, 1], ascending, deduplicated.

    obj may be a ChebSeries, a PiecewiseCheb, or a callable (vectorized).
    noise_floor states the evaluation noise of one call of obj (for a
    degree-n Clenshaw evaluation this is ~2n eps max|c|); it floors both the
    local fitting tolerance and the final residual check, which otherwise
    sit far below what the evaluator can deliver once the residual is small
    and the degree is large. Each returned r satisfies
    |obj(r)| <= max(RESID_TOL * scale, 8 * noise_floor).
    """
    if not (-1.0 <= a <= b <= 1.0):
        raise ValueError("need -1 <= a <= b <= 1")

    if isinstance(obj, ChebSeries):
        fn = obj
        if scale is None:
            scale = max(obj.coeff_max, 1e-300)
        if derivative is None:
            derivative = obj.derivative()
        bps = []
    elif isinstance(obj, PiecewiseCheb):
        fn = obj
        if scale is None:
            scale = max(obj.coeff_max, 1e-300)
        if derivative is None:
            derivative = obj.derivative()
        bps = list(obj.breaks)
    else:
        fn = obj
        if scale is None:
            sample = np.asarray(fn(np.linspace(a, b, 257)), dtype=float)
            scale = max(float(np.max(np.abs(sample))), 1e-300)
        bps = []
    bps = sorted({float(t) for t in list(breakpoints) + bps if a < t < b})

    out: list[float] = []
    budget = [MAX_SUBINTERVALS]
    edges = [a] + bps + [b]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            _recurse(fn, lo, hi, scale, budget, out, noise_floor)

    roots = _dedup(np.asarray(sorted(out)))
    roots = _polish(fn, derivative, roots, a, b)
    roots = _dedup(roots)
    if roots.size:
        cut = max(RESID_TOL * scale, 8.0 * noise_floor)
        ok = np.abs(np.asarray(fn(roots), dtype=float)) <= cut
        roots = roots[ok]
    return roots


def sign_changing(fn, roots: np.ndarray, a: float = -1.0, b: float = 1.0):
    """Classify roots by the sign of fn between them.

    Returns (changing, signs) where `changing` is the boolean mask of roots
    across which the sign flips and `signs` holds one sign per segment of
    [a, b] split at ALL roots (len(roots) + 1 entries). Each segment is
    sampled at three interior points and the largest-magnitude value wins,
    so a touching zero sitting mid-segment cannot blank the sign.
    """
    pts = np.concatenate([[a], roots, [b]])
    lo, hi = pts[:-1], pts[1:]
    samples = np.stack([lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)])
    vals = np.asarray(fn(samples.ravel()), dtype=float).reshape(samples.shape)
    pick = np.argmax(np.abs(vals), axis=0)
    signs = np.sign(vals[pick, np.arange(vals.shape[1])])
    changing = signs[:-1] * signs[1:] < 0
    return changing, signs
