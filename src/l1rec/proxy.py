"""Adaptive Chebyshev proxies for black-box evaluators on [-1, 1].

A proxy is a PiecewiseCheb: one Chebyshev series per subinterval, each with
its trailing-coefficient envelope below tol * max|coeff|, found by doubling
the degree until the last three coefficients pass that test. Breakpoint
hints fix the first subintervals; a subinterval that does not resolve by
degree 128 is bisected, down to a minimum width, and then kept as an
unresolved sliver whose contribution to any integral is bounded by its
width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chebyshev import (
    Basis,
    ChebSeries,
    chebpts_first,
    clenshaw,
    coeffs_from_values,
    interpolant,
    second_to_first,
    secondkind_segment_integrals,
)
from .errors import NoConvergence

__all__ = ["PiecewiseCheb", "Piece", "adaptive_proxy"]

SPLIT_PIECE_DEGREE = 128
MIN_PIECE_WIDTH = 1e-13
MAX_PIECES = 2**12
SPLIT_RATIO = 0.5000539266278566  # off-center bisection: dodges symmetric kinks and roots


# Fixed off-grid checkpoints, used to reject aliased fits (e.g. T_50 sampled
# at 33 points looks like a clean low-degree series with a zero tail). The
# edge-hugging points catch features that sit between the outermost sample
# point and the interval edge.
_CHECKPOINTS = np.concatenate(
    [
        np.cos(np.pi * ((np.arange(1, 14) * 0.381966011250105) % 1.0)),
        [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12],
        [-1 + 1e-3, -1 + 1e-6, -1 + 1e-9, -1 + 1e-12],
    ]
)


def fit_on_interval(
    evaluator,
    a: float,
    b: float,
    tol: float,
    *,
    max_degree: int,
    abs_floor: float = 0.0,
):
    """Adaptively fit evaluator on [a, b].

    Returns (series, resolved). The series lives in local coordinates on
    [-1, 1]; callers map through x -> (2x - a - b)/(b - a). `resolved` is
    False only when the degree cap was hit, in which case the best fit so
    far is returned untrimmed.

    A coefficient tail that has stagnated at a tiny relative level by the
    degree cap (at least 32 points) is treated as the evaluator's rounding
    floor and accepted: near singular endpoints, e.g. 1 - x*x loses digits
    and no amount of degree helps.
    """
    deg = min(16, max_degree)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    check_x = mid + half * _CHECKPOINTS
    check_f = None

    def verified(full: ChebSeries, cut: float):
        nonlocal check_f
        if check_f is None:
            check_f = np.asarray(evaluator(check_x), dtype=float)
        return np.max(np.abs(full(_CHECKPOINTS) - check_f)) <= 50.0 * cut + 4.0 * abs_floor

    while True:
        m = deg + 1
        full = interpolant(evaluator, m, a, b)
        coeffs = full.coeffs
        cmax = float(np.max(np.abs(coeffs)))
        cut = max(tol * cmax, abs_floor)
        tail = float(np.max(np.abs(coeffs[-3:])))
        if cmax == 0.0 or tail <= cut:
            if cmax == 0.0 or verified(full, cut):
                return full.trimmed(cut), True
        if deg >= max_degree:
            if m >= 32:
                # Flat-noise detection: white rounding noise has the same
                # median level in the last two coefficient quarters, while a
                # genuine algebraic tail (kinks ~ k^-2, jumps ~ k^-1) decays
                # across them by at least ~30%.
                hi = float(np.median(np.abs(coeffs[-(m // 4):])))
                lo = float(np.median(np.abs(coeffs[-(m // 2): -(m // 4)])))
                plateau_cut = max(2.0 * tail, cut)
                if hi >= 0.75 * lo and hi <= 1e-5 * cmax and verified(full, plateau_cut):
                    return full.trimmed(plateau_cut), True
            return full, False
        deg = min(2 * deg, max_degree)


@dataclass(frozen=True, eq=False)
class Piece:
    a: float
    b: float
    series: ChebSeries
    resolved: bool = True

    def local(self, x):
        return (2.0 * np.asarray(x, dtype=float) - self.a - self.b) / (self.b - self.a)


class PiecewiseCheb:
    """Contiguous Chebyshev pieces in one basis covering [-1, 1] (or a part).

    The pieces' coefficients are held as one matrix, one zero-padded row per
    piece, with the piece ends in `edges` and each row's degree in
    `degrees`, so evaluation, differentiation and re-expansion act on every
    piece in one array pass.
    """

    def __init__(self, pieces):
        pieces = sorted(pieces, key=lambda p: p.a)
        if not pieces:
            raise ValueError("need at least one piece")
        if len({p.series.basis for p in pieces}) > 1:
            raise ValueError("pieces must share one basis")
        self.basis = pieces[0].series.basis
        self.edges = np.array([p.a for p in pieces] + [pieces[-1].b])
        self.degrees = np.array([p.series.degree for p in pieces])
        self.coeffs = np.zeros((len(pieces), self.degrees.max() + 1))
        for row, p in zip(self.coeffs, pieces):
            row[: p.series.degree + 1] = p.series.coeffs
        self._resolved = np.array([p.resolved for p in pieces])
        self.__dict__["pieces"] = pieces

    def _stacked(self, basis, coeffs, degrees) -> "PiecewiseCheb":
        """A proxy on the same pieces with the given coefficient matrix."""
        out = PiecewiseCheb.__new__(PiecewiseCheb)
        out.__dict__.update(vars(self), basis=basis, coeffs=coeffs, degrees=degrees)
        out.__dict__.pop("pieces", None)
        return out

    @cached_property
    def pieces(self) -> list:
        return [
            Piece(a, b, ChebSeries(self.basis, row[: d + 1]), bool(ok))
            for a, b, row, d, ok in zip(
                self.edges[:-1], self.edges[1:], self.coeffs, self.degrees, self._resolved
            )
        ]

    @property
    def a(self) -> float:
        return float(self.edges[0])

    @property
    def b(self) -> float:
        return float(self.edges[-1])

    @property
    def resolved(self) -> bool:
        return bool(self._resolved.all())

    @property
    def coeff_max(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, len(self.degrees) - 1)
        lo, hi = self.edges[idx], self.edges[idx + 1]
        out = clenshaw(self.coeffs, self.basis, (2.0 * x - lo - hi) / (hi - lo), rows=idx)
        return float(out) if x.ndim == 0 else out

    def integrate(self, a: float, b: float) -> float:
        if b < a:
            return -self.integrate(b, a)
        return float(self.segment_integrals([a, b])[0])

    def segment_integrals(self, bounds) -> np.ndarray:
        """Integrals over [bounds[i], bounds[i+1]] for ascending bounds. Each
        piece adds the termwise segment integrals of its series over the
        segments that overlap it, clipped to the piece."""
        bounds = np.asarray(bounds, dtype=float)
        out = np.zeros(len(bounds) - 1)
        for p in self.pieces:
            lo = max(int(np.searchsorted(bounds, p.a, side="right")) - 1, 0)
            hi = min(int(np.searchsorted(bounds, p.b, side="left")), len(out))
            if hi <= lo:
                continue
            local = p.local(np.clip(bounds[lo : hi + 1], p.a, p.b))
            c = p.series.to_basis(Basis.SECOND).coeffs
            out[lo:hi] += 0.5 * (p.b - p.a) * (c @ secondkind_segment_integrals(len(c) - 1, local))
        return out

    def derivative(self) -> "PiecewiseCheb":
        """Every piece differentiated at once, in the second kind: with
        T_k' = k U_{k-1} and the chain rule 2/(b - a) of each piece."""
        a = self.coeffs if self.basis is Basis.FIRST else second_to_first(self.coeffs)
        d = a[:, 1:] * np.arange(1, a.shape[1]) if a.shape[1] > 1 else np.zeros_like(a)
        d *= (2.0 / np.diff(self.edges))[:, None]
        return self._stacked(Basis.SECOND, d, np.maximum(self.degrees - 1, 0))

    def minus(self, p: ChebSeries) -> "PiecewiseCheb":
        """self - p. On a piece of degree d the difference is a polynomial
        of degree m - 1 = max(d, deg p), so interpolating it at m first-kind
        points is exact; the pieces of one m are re-expanded together."""
        mid, half = 0.5 * (self.edges[:-1] + self.edges[1:]), 0.5 * np.diff(self.edges)
        ms = np.maximum(self.degrees, p.degree) + 1
        out = np.zeros((len(ms), ms.max()))
        for m in np.unique(ms):
            g = np.flatnonzero(ms == m)
            t = chebpts_first(m)
            own = clenshaw(self.coeffs[g, :m], self.basis, t, rows=np.arange(len(g))[:, None])
            out[g, :m] = coeffs_from_values(own - p(mid[g, None] + half[g, None] * t))
        return self._stacked(Basis.FIRST, out, ms - 1)


def _split_fit(evaluator, a, b, tol, abs_floor, budget) -> list:
    series, ok = fit_on_interval(
        evaluator,
        a,
        b,
        tol,
        abs_floor=abs_floor,
        max_degree=SPLIT_PIECE_DEGREE,
    )
    if ok:
        return [Piece(a, b, series, True)]
    if b - a <= MIN_PIECE_WIDTH:
        small, _ = fit_on_interval(
            evaluator, a, b, tol, abs_floor=abs_floor, max_degree=16
        )
        return [Piece(a, b, small, False)]
    if budget[0] <= 0:
        raise NoConvergence(
            f"piecewise fit used more than {MAX_PIECES} subintervals on [{a}, {b}]"
        )
    budget[0] -= 1
    mid = a + (b - a) * SPLIT_RATIO
    left = _split_fit(evaluator, a, mid, tol, abs_floor, budget)
    right = _split_fit(evaluator, mid, b, tol, abs_floor, budget)
    return left + right


def adaptive_proxy(evaluator, tol: float, *, breakpoints=(), abs_floor: float = 0.0) -> PiecewiseCheb:
    """Adaptive piecewise Chebyshev representation of evaluator on [-1, 1].

    Fits one series per subinterval between the breakpoints; a subinterval
    that does not resolve by degree 128 is bisected recursively, within a
    budget of MAX_PIECES bisections.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    bps = sorted(float(t) for t in breakpoints if -1.0 < t < 1.0)
    edges = [-1.0] + bps + [1.0]
    pieces = []
    budget = [MAX_PIECES]
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces.extend(_split_fit(evaluator, lo, hi, tol, abs_floor, budget))
    return PiecewiseCheb(pieces)
