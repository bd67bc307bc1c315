"""Real rootfinding on [-1, 1] via colleague-matrix eigenvalues.

Roots are found on polynomials only, and always on all of [-1, 1]: a
Chebyshev series, or each piece of a piecewise one. A trimmed local series
of degree <= 50 goes straight to the colleague matrix; a larger one is split
off-centre and re-expanded exactly on each half by chebyshev.interpolant
(Boyd's recursive subdivision), within a hard budget of 2^12 subintervals.
Roots are Newton-polished and verified on the function the polynomial
represents, and deduplicated at 1e-12 spacing.
"""

from __future__ import annotations

import numpy as np

from .chebyshev import Basis, ChebSeries, interpolant
from .errors import SubdivisionLimit
from .proxy import SPLIT_RATIO, Piece, PiecewiseCheb

__all__ = ["roots_in_interval", "sign_changing"]

COLLEAGUE_DEGREE = 50
MAX_SUBINTERVALS = 2**12
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


def _real_roots_of_series(first: ChebSeries) -> np.ndarray:
    """Real roots in [-1, 1] of a trimmed first-kind series, unpolished:
    roots_in_interval polishes all of them together on the checked function."""
    if first.degree == 0:
        return np.empty(0)
    ev = colleague_roots(first.coeffs)
    # imag tolerance 1e-6: eigenvalues of touching (even-multiplicity) roots
    # split by ~sqrt(backward error), often into conjugate pairs; genuinely
    # complex pairs admitted here are culled by the residual check later
    keep = (np.abs(ev.imag) <= 1e-6) & (ev.real >= -1.0 - 1e-8) & (ev.real <= 1.0 + 1e-8)
    return np.clip(ev.real[keep], -1.0, 1.0)


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


def _recurse(series, a, b, scale, budget, out, noise_floor):
    """Collect the roots of series, which lives in the local coordinate of
    [a, b], in global coordinates."""
    abs_floor = max(1e-15 * scale, noise_floor)
    series = series.to_basis(Basis.FIRST)
    series = series.trimmed(max(1e-14 * series.coeff_max, abs_floor))
    if series.coeff_max <= 4.0 * abs_floor:
        return  # numerically zero piece: no isolated roots
    if series.degree <= COLLEAGUE_DEGREE:
        local = _real_roots_of_series(series)
        out.extend(0.5 * (a + b) + 0.5 * (b - a) * local)
        return
    if budget[0] <= 0:
        raise SubdivisionLimit(
            f"rootfinding exceeded {MAX_SUBINTERVALS} subintervals"
        )
    budget[0] -= 1
    mid = a + (b - a) * SPLIT_RATIO
    split = 2.0 * SPLIT_RATIO - 1.0
    # each half re-expanded exactly: a degree-d polynomial at d + 1 points
    m = series.degree + 1
    _recurse(interpolant(series, m, -1.0, split), a, mid, scale, budget, out, noise_floor)
    _recurse(interpolant(series, m, split, 1.0), mid, b, scale, budget, out, noise_floor)


def _polish(fn, derivative, roots):
    if roots.size == 0:
        return roots
    r = roots.copy()
    fr = np.asarray(fn(r), dtype=float)
    for _ in range(3):
        dr = np.asarray(derivative(r), dtype=float)
        safe = np.abs(dr) > 1e-300
        step = np.where(safe, fr / np.where(safe, dr, 1.0), 0.0)
        cand = np.clip(r - step, -1.0, 1.0)
        fc = np.asarray(fn(cand), dtype=float)
        better = np.abs(fc) <= np.abs(fr)
        r = np.where(better, cand, r)
        fr = np.where(better, fc, fr)
    return r


def roots_in_interval(
    obj,
    *,
    check=None,
    scale: float | None = None,
    noise_floor: float = 0.0,
) -> np.ndarray:
    """All real roots of obj in [-1, 1], ascending, deduplicated.

    obj is a ChebSeries or a PiecewiseCheb; each piece is searched
    separately. check, when given, is the function that obj represents
    (vectorized): the roots are Newton-polished on it, with obj's
    derivative, and each returned r satisfies
    |check(r)| <= max(RESID_TOL * scale, 8 * noise_floor). Without check,
    obj itself is polished and checked. scale defaults to obj's largest
    coefficient. noise_floor states the evaluation noise of one call of
    check (for a degree-n Clenshaw evaluation this is ~2n eps max|c|); it
    floors the coefficient trimming and the final residual check, which
    otherwise sit far below what the evaluator can deliver once the
    residual is small and the degree is large.
    """
    if isinstance(obj, ChebSeries):
        pieces = [Piece(-1.0, 1.0, obj)]
    elif isinstance(obj, PiecewiseCheb):
        pieces = obj.pieces
    else:
        raise TypeError(f"need a ChebSeries or a PiecewiseCheb, not {type(obj).__name__}")
    if scale is None:
        scale = max(obj.coeff_max, 1e-300)
    fn = obj if check is None else check

    out: list[float] = []
    budget = [MAX_SUBINTERVALS]
    for piece in pieces:
        _recurse(piece.series, piece.a, piece.b, scale, budget, out, noise_floor)

    roots = _dedup(np.asarray(sorted(out)))
    roots = _polish(fn, obj.derivative(), roots)
    roots = _dedup(roots)
    if roots.size:
        cut = max(RESID_TOL * scale, 8.0 * noise_floor)
        ok = np.abs(np.asarray(fn(roots), dtype=float)) <= cut
        roots = roots[ok]
    return roots


def sign_changing(fn, roots: np.ndarray):
    """Classify roots by the sign of fn between them.

    Returns (changing, signs) where `changing` is the boolean mask of roots
    across which the sign flips and `signs` holds one sign per segment of
    [-1, 1] split at ALL roots (len(roots) + 1 entries). Each segment is
    sampled at three interior points and the largest-magnitude value wins,
    so a touching zero sitting mid-segment cannot blank the sign.
    """
    pts = np.concatenate([[-1.0], roots, [1.0]])
    lo, hi = pts[:-1], pts[1:]
    samples = np.stack([lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)])
    vals = np.asarray(fn(samples.ravel()), dtype=float).reshape(samples.shape)
    pick = np.argmax(np.abs(vals), axis=0)
    signs = np.sign(vals[pick, np.arange(vals.shape[1])])
    changing = signs[:-1] * signs[1:] < 0
    return changing, signs
