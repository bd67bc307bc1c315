"""Real rootfinding on [-1, 1] via colleague-matrix eigenvalues.

Roots are found on polynomials only, and always on all of [-1, 1]: a
Chebyshev series, or every piece of a piecewise one at once. A trimmed
local series of degree <= 50 goes straight to the colleague matrix; a
larger one is split off-centre and re-expanded exactly on each half (Boyd's
recursive subdivision), within a hard budget of 2^12 subintervals. The
subdivision runs one level at a time: the series of one degree are
evaluated on both halves by one stacked Clenshaw recurrence and re-expanded
by one DCT (chebyshev.coeffs_from_values), and the colleague eigenproblems
of all leaves are solved stacked, one per degree. Roots are Newton-polished
and verified on the function the polynomial represents, and deduplicated
at 1e-12 spacing.
"""

from __future__ import annotations

import numpy as np

from .chebyshev import (
    Basis,
    ChebSeries,
    chebpts_first,
    clenshaw,
    coeffs_from_values,
    second_to_first,
)
from .errors import SubdivisionLimit
from .proxy import SPLIT_RATIO, Piece, PiecewiseCheb

__all__ = ["roots_in_interval", "sign_changing"]

COLLEAGUE_DEGREE = 50
MAX_SUBINTERVALS = 2**12
DEDUP_TOL = 1e-12
RESID_TOL = 1e-11


def _dedup(roots: np.ndarray, tol: float = DEDUP_TOL) -> np.ndarray:
    """Sorted roots, each run of neighbours closer than tol merged into its mean."""
    if roots.size == 0:
        return roots
    roots = np.sort(roots)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(roots) > tol) + 1])
    return np.add.reduceat(roots, starts) / np.diff(np.append(starts, roots.size))


def _halves(lo, hi, coeffs, degrees):
    """Split every subinterval at SPLIT_RATIO, and re-expand its series
    exactly on each half: a degree-d polynomial at d + 1 points. Returns the
    children's ends and zero-padded coefficient rows, left halves first."""
    mid = lo + (hi - lo) * SPLIT_RATIO
    split = 2.0 * SPLIT_RATIO - 1.0
    ms = degrees + 1
    out = np.zeros((2, len(ms), ms.max()))
    for m in np.unique(ms):
        g = np.flatnonzero(ms == m)
        t = np.concatenate([chebpts_first(m, -1.0, split), chebpts_first(m, split, 1.0)])
        vals = clenshaw(coeffs[g, :m], Basis.FIRST, t, rows=np.arange(len(g))[:, None])
        out[:, g, :m] = coeffs_from_values(vals.reshape(len(g), 2, m)).swapaxes(0, 1)
    return np.concatenate([lo, mid]), np.concatenate([mid, hi]), out.reshape(2 * len(ms), -1)


def _leaves(pw: PiecewiseCheb, abs_floor: float):
    """(lo, hi, coeffs, degrees) of every subinterval whose trimmed
    first-kind series is not numerically zero and has degree <= 50, found
    level by level from pw's pieces; coeffs has one zero-padded row each."""
    lo, hi = pw.edges[:-1], pw.edges[1:]
    coeffs = pw.coeffs if pw.basis is Basis.FIRST else second_to_first(pw.coeffs)
    budget = MAX_SUBINTERVALS
    found = []
    while len(lo):
        cmax = np.max(np.abs(coeffs), axis=1)
        # each row's degree after dropping its trailing |c_k| <= tol
        big = np.abs(coeffs) > np.maximum(1e-14 * cmax, abs_floor)[:, None]
        degrees = np.max(np.where(big, np.arange(coeffs.shape[1]), 0), axis=1)
        live = cmax > 4.0 * abs_floor  # a numerically zero piece has no isolated roots
        leaf = live & (degrees <= COLLEAGUE_DEGREE)
        rows = np.zeros((np.count_nonzero(leaf), COLLEAGUE_DEGREE + 1))
        rows[:, : coeffs.shape[1]] = coeffs[leaf, : COLLEAGUE_DEGREE + 1]
        found.append((lo[leaf], hi[leaf], rows, degrees[leaf]))
        split = live & ~leaf
        budget -= np.count_nonzero(split)
        if budget < 0:
            raise SubdivisionLimit(f"rootfinding exceeded {MAX_SUBINTERVALS} subintervals")
        if not split.any():
            break
        lo, hi, coeffs = _halves(lo[split], hi[split], coeffs[split], degrees[split])
    return [np.concatenate(parts) for parts in zip(*found)]


def _leaf_roots(lo, hi, coeffs, degrees) -> np.ndarray:
    """Real roots of every leaf series in its interval, unpolished: one
    stacked colleague eigensolve per degree."""
    out = [np.empty(0)]
    for d in np.unique(degrees[degrees > 0]):
        g = np.flatnonzero(degrees == d)
        a = coeffs[g, : d + 1]
        if d == 1:
            ev = -a[:, :1] / a[:, 1:]
        else:
            M = np.zeros((len(g), d, d))
            M[:, 1, 0] = 1.0
            k = np.arange(1, d - 1)
            M[:, k - 1, k] = M[:, k + 1, k] = 0.5
            M[:, :, d - 1] = -a[:, :d] / (2.0 * a[:, d:])
            M[:, d - 2, d - 1] += 0.5
            ev = np.linalg.eigvals(M)
        # imag tolerance 1e-6: eigenvalues of touching (even-multiplicity) roots
        # split by ~sqrt(backward error), often into conjugate pairs; genuinely
        # complex pairs admitted here are culled by the residual check later
        keep = (np.abs(ev.imag) <= 1e-6) & (ev.real >= -1.0 - 1e-8) & (ev.real <= 1.0 + 1e-8)
        local = np.clip(ev.real, -1.0, 1.0)
        x = (0.5 * (lo[g] + hi[g]))[:, None] + (0.5 * (hi[g] - lo[g]))[:, None] * local
        out.append(x[keep])
    return np.concatenate(out)


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

    obj is a ChebSeries or a PiecewiseCheb; all its pieces are searched
    together. check, when given, is the function that obj represents
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
        pw = PiecewiseCheb([Piece(-1.0, 1.0, obj)])
    elif isinstance(obj, PiecewiseCheb):
        pw = obj
    else:
        raise TypeError(f"need a ChebSeries or a PiecewiseCheb, not {type(obj).__name__}")
    if scale is None:
        scale = max(obj.coeff_max, 1e-300)
    fn = obj if check is None else check

    roots = _dedup(_leaf_roots(*_leaves(pw, max(1e-15 * scale, noise_floor))))
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
