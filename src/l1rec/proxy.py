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

import numpy as np

from .chebyshev import Basis, ChebSeries, interpolant, secondkind_segment_integrals
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

    def __call__(self, x):
        return self.series(self.local(x))


class PiecewiseCheb:
    """A list of contiguous Chebyshev pieces covering [-1, 1] (or a part)."""

    def __init__(self, pieces):
        pieces = sorted(pieces, key=lambda p: p.a)
        if not pieces:
            raise ValueError("need at least one piece")
        self.pieces = pieces
        self._edges = np.array([p.a for p in pieces] + [pieces[-1].b])

    @property
    def a(self) -> float:
        return self.pieces[0].a

    @property
    def b(self) -> float:
        return self.pieces[-1].b

    @property
    def resolved(self) -> bool:
        return all(p.resolved for p in self.pieces)

    @property
    def coeff_max(self) -> float:
        return max(p.series.coeff_max for p in self.pieces)

    def _locate(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._edges, x, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x).ravel()
        out = np.empty_like(xf)
        idx = self._locate(xf)
        for i in np.unique(idx):  # touch only the pieces actually hit
            mask = idx == i
            out[mask] = self.pieces[i](xf[mask])
        if scalar:
            return float(out[0])
        return out.reshape(np.atleast_1d(x).shape)

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
        out = []
        for p in self.pieces:
            d = p.series.derivative() * (2.0 / (p.b - p.a))
            out.append(Piece(p.a, p.b, d, p.resolved))
        return PiecewiseCheb(out)

    def minus(self, p: ChebSeries) -> "PiecewiseCheb":
        """self - p, piece by piece. Each difference is a polynomial of
        degree max(piece degree, deg p), so interpolating it at that many
        plus one first-kind points is exact."""
        out = []
        for piece in self.pieces:
            mid, half = 0.5 * (piece.a + piece.b), 0.5 * (piece.b - piece.a)
            series = interpolant(
                lambda t: piece.series(t) - p(mid + half * t),
                max(piece.series.degree, p.degree) + 1,
            )
            out.append(Piece(piece.a, piece.b, series, piece.resolved))
        return PiecewiseCheb(out)


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
