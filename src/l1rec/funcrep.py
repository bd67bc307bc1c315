"""Evaluable target functions, residuals against polynomials, and norms.

A FuncRep bundles a raw evaluator on [-1, 1] with an adaptive piecewise
Chebyshev proxy (used for derivatives, integrals and roots), optional breakpoint
hints, and optional known-corruption metadata. A Residual is f minus a
polynomial; it owns the rootfinding/sign-partition machinery that the L1
norm, the optimality integrals, and the Newton iteration all share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chebyshev import (
    Basis,
    ChebSeries,
    build_grid,
    extrema_values,
    secondkind_segment_integrals,
)
from .errors import DomainError
from .proxy import PiecewiseCheb, Piece, adaptive_proxy
from .rootfind import roots_in_interval, sign_changing

__all__ = [
    "Corruption",
    "FuncRep",
    "Residual",
    "norm",
    "segment_l1",
]

_SUP_M = 2048
_SUP_POINTS = np.cos(np.linspace(0.0, np.pi, _SUP_M + 1))  # cos(k pi/2048)


def _sup_abs(fn, breakpoints, on_sup_points) -> float:
    """max |fn| over the 2049 Chebyshev points _SUP_POINTS, whose values
    on_sup_points gives, and over +-1 and every breakpoint with its
    neighbours at +-1e-9 (so a jump cannot hide between samples), where fn
    is evaluated."""
    extra = [t + d for t in breakpoints for d in (-1e-9, 0.0, 1e-9)]
    x = np.clip(np.concatenate([extra, [-1.0, 1.0]]), -1.0, 1.0)
    return float(max(np.max(np.abs(on_sup_points)), np.max(np.abs(fn(x)))))


def _checked(fn):
    """fn as FuncRep calls it: a float array in, a float array of the same
    shape out, every value finite. Anything else raises DomainError."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        try:
            out = np.asarray(fn(x), dtype=float)
        except (TypeError, ValueError) as exc:  # e.g. math.sin(x) or `if x > 0`
            raise DomainError(f"evaluator must be vectorized: {exc}") from exc
        if out.shape != x.shape:
            raise DomainError(
                f"evaluator must be vectorized: shape {out.shape} returned for input shape {x.shape}"
            )
        bad = ~np.isfinite(out)
        if bad.any():
            raise DomainError(f"evaluator returned {out[bad][0]} at x = {x[bad][0]!r}")
        return out

    return evaluate


@dataclass(frozen=True)
class Corruption:
    """Known corruption metadata: closed support intervals and the clean part.

    The intervals are stored as sorted (a, b) float pairs; ValueError unless
    each lies in [-1, 1] and no two overlap.
    """

    intervals: tuple
    clean: object = None  # callable or ChebSeries for the uncorrupted f0

    def __post_init__(self):
        ivs = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        for a, b in ivs:
            if not (-1.0 <= a <= b <= 1.0):
                raise ValueError("intervals must lie in [-1, 1]")
        for (_, b0), (a1, _) in zip(ivs[:-1], ivs[1:]):
            if a1 < b0:
                raise ValueError("intervals must be disjoint")
        object.__setattr__(self, "intervals", ivs)

    @property
    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    @property
    def zeta(self) -> float:
        return float(max(max(abs(a), abs(b)) for a, b in self.intervals))

    def contains(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        inside = np.zeros(x.shape, dtype=bool)
        for a, b in self.intervals:
            inside |= (x >= a) & (x <= b)
        return inside


class FuncRep:
    """A function on [-1, 1] with proxy-based derivative and integral access."""

    proxy_tol = 1e-13  # relative coefficient tail at which a proxy piece is resolved

    def __init__(
        self,
        evaluator,
        *,
        breakpoints=(),
        corruption: Corruption | None = None,
        name: str = "f",
    ):
        self.eval = _checked(evaluator)
        bps = sorted(float(t) for t in breakpoints if -1.0 < t < 1.0)
        if corruption is not None:
            for a, b in corruption.intervals:
                bps.extend(t for t in (a, b) if -1.0 < t < 1.0)
        self.breakpoints = tuple(sorted(set(bps)))
        self.corruption = corruption
        self.name = name

    @classmethod
    def from_series(cls, series: ChebSeries, name: str = "p") -> "FuncRep":
        f = cls(series, name=name)
        f.__dict__["proxy"] = PiecewiseCheb([Piece(-1.0, 1.0, series, True)])
        return f

    @cached_property
    def _sup_values(self) -> np.ndarray:
        """f at the points cos(k pi/2048), k = 0..2048, that its scale and
        every residual's scale sample."""
        return self.eval(_SUP_POINTS)

    @cached_property
    def value_scale(self) -> float:
        return max(_sup_abs(self.eval, self.breakpoints, self._sup_values), 1e-300)

    @cached_property
    def proxy(self) -> PiecewiseCheb:
        return adaptive_proxy(
            self.eval,
            self.proxy_tol,
            breakpoints=self.breakpoints,
            abs_floor=4e-16 * self.value_scale,
        )

    @cached_property
    def _proxy_derivative(self) -> PiecewiseCheb:
        return self.proxy.derivative()

    def derivative(self, x):
        return self._proxy_derivative(x)

    @cached_property
    def l1_norm(self) -> float:
        """||f||_1, by signed integration between the sign changes of f."""
        return Residual(self, ChebSeries(Basis.SECOND, [0.0])).l1()

    def __call__(self, x):
        return self.eval(x)

    def __repr__(self) -> str:
        return f"FuncRep({self.name!r})"


class Residual:
    """e = f - p for a FuncRep f and polynomial p, with sign machinery."""

    def __init__(self, f: FuncRep, p: ChebSeries):
        self.f = f
        self.p = p
        self._dp = p.derivative()

    def __call__(self, x):
        return self.f.eval(x) - self.p(x)

    def derivative(self, x):
        return self.f.derivative(x) - self._dp(x)

    @cached_property
    def scale(self) -> float:
        # the sample points are theta-uniform, so p on them is one DCT-I
        p_vals = extrema_values(self.p.to_basis(Basis.FIRST).coeffs, _SUP_M)
        return _sup_abs(self, self.f.breakpoints, self.f._sup_values - p_vals)

    @cached_property
    def eval_noise(self) -> float:
        """Rounding level of one evaluation of e = f - p: the Clenshaw error
        of a degree-d series grows like ~2 d eps max|c|."""
        eps = np.finfo(float).eps
        return eps * (self.f.value_scale + 2.0 * (self.p.degree + 1) * self.p.coeff_max)

    @property
    def negligible(self) -> bool:
        """True when e is numerically the zero function."""
        return self.scale <= max(
            1e-13 * max(self.f.value_scale, self.p.coeff_max), 4.0 * self.eval_noise
        )

    @cached_property
    def proxy(self) -> PiecewiseCheb:
        """e as a piecewise polynomial: f's proxy minus p."""
        return self.f.proxy.minus(self.p)

    @cached_property
    def roots(self) -> np.ndarray:
        """Roots of e, found on its proxy and verified on the evaluator."""
        if self.negligible:
            return np.empty(0)
        return roots_in_interval(
            self.proxy, check=self, scale=self.scale, noise_floor=self.eval_noise
        )

    @cached_property
    def _sign_classes(self):
        """sign_changing's (mask of sign-changing roots, sign of e on each
        segment between consecutive roots)."""
        return sign_changing(self, self.roots)

    @property
    def _classified(self) -> np.ndarray:
        return self._sign_classes[0]

    @property
    def sign_change_roots(self) -> np.ndarray:
        return self.roots[self._classified]

    def sign_segments(self):
        """Boundaries [-1, r_1, ..., r_K, 1] at sign-changing roots, and the
        sign of e on each of the K+1 segments. A segment's sign is the one
        its sub-segments between all roots carry, as sign_changing sampled
        them; one where e sampled zero takes no part, so a touching root in
        the segment cannot blank its sign."""
        changing, signs = self._sign_classes
        first = np.concatenate([[0], np.flatnonzero(changing) + 1])
        bounds = np.concatenate([[-1.0], self.roots[changing], [1.0]])
        return bounds, np.sign(np.add.reduceat(signs, first))

    def l1(self) -> float:
        """Exact ||e||_1 by signed integration between sign changes.

        The partition also splits at f's breakpoints so jump discontinuities
        cannot hide a sign flip inside a segment.
        """
        if self.negligible:
            return 0.0
        cuts = np.concatenate([self.sign_change_roots, self.f.breakpoints])
        bounds = np.unique(np.concatenate([[-1.0], cuts[(cuts > -1) & (cuts < 1)], [1.0]]))
        c = self.p.to_basis(Basis.SECOND).coeffs
        return segment_l1(self.f, bounds, c @ secondkind_segment_integrals(len(c) - 1, bounds))

    def linf(self) -> float:
        """||e||_inf from derivative roots, endpoints, and breakpoints."""
        cand = [np.array([-1.0, 1.0]), np.asarray(self.f.breakpoints)]
        if not self.negligible:
            cand.append(roots_in_interval(self.proxy.derivative()))
        pts = np.concatenate([c for c in cand if c.size])
        return float(np.max(np.abs(self(pts))))


def segment_l1(f: FuncRep, bounds, p_integrals) -> float:
    """sum_i |integral of f - p over [bounds[i], bounds[i+1]]| for ascending
    bounds, given the segment integrals of p: ||f - p||_1 when f - p keeps
    one sign on every segment."""
    return float(np.sum(np.abs(f.proxy.segment_integrals(bounds) - p_integrals)))


def norm(obj, which: str, *, N: int | None = None, tol: float | None = None) -> float:
    """Continuous and discrete norms: "L1", "L2", "Linf", "l1", "l0".

    The discrete norms ("l1", "l0") require the grid size N; "l0" counts grid
    samples with |f(x_j)| > tol. obj may be a ChebSeries, FuncRep, or Residual;
    the continuous norms of a ChebSeries are those of FuncRep.from_series.
    """
    if which in ("l1", "l0"):
        if N is None:
            raise ValueError("discrete norms need the grid size N")
        grid = build_grid(N)
        vals = np.abs(np.asarray(obj(grid.points), dtype=float))
        if which == "l1":
            return float(np.dot(grid.weights, vals))
        if tol is None:
            raise ValueError('norm(..., "l0") needs tol')
        return int(np.count_nonzero(vals > tol))

    if isinstance(obj, ChebSeries):
        obj = FuncRep.from_series(obj)
    res = obj if isinstance(obj, Residual) else Residual(obj, ChebSeries(Basis.SECOND, [0.0]))
    if which == "L1":
        return res.l1()
    if which == "Linf":
        return res.linf()
    if which == "L2":
        total = 0.0
        for piece in res.proxy.pieces:
            a1 = piece.series.coeffs
            sq = np.polynomial.chebyshev.chebmul(a1, a1)
            total += 0.5 * (piece.b - piece.a) * ChebSeries(Basis.FIRST, sq).integrate()
        return float(np.sqrt(max(total, 0.0)))
    raise ValueError(f"unknown norm {which!r}")
