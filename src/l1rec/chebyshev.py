"""Chebyshev grids and series: the polynomial currency of the package.

Everything lives on [-1, 1]. Series come in two flavors, first kind (T_j) and
second kind (U_j); the second kind is the primary internal representation
because its roots are the canonical L1 sample points and its antiderivative
is a single first-kind polynomial, integral U_j = T_{j+1}/(j+1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import TooLarge

__all__ = [
    "Basis",
    "ChebGrid",
    "ChebSeries",
    "build_grid",
    "chebpts_first",
    "chebvander_second",
    "clenshaw",
    "coeffs_from_values",
    "differentiate",
    "extrema_values",
    "first_to_second",
    "gap_integrals",
    "gap_moments",
    "gap_values",
    "interpolant",
    "interpolate_on_grid",
    "second_to_first",
    "secondkind_segment_integrals",
    "tcheb_values",
    "VANDERMONDE_MAX_ENTRIES",
]

# Largest dense Vandermonde chebvander_second builds: 2^26 float64 entries
# (512 MiB). The LP solvers copy the matrix again, so a larger one does not
# fit beside them on a machine of a few GB. best_l1's refine LP of 20(n+1)
# points reaches it near n = 1830, recover_l1's default grid of 1000 + 50n
# points near n = 1150.
VANDERMONDE_MAX_ENTRIES = 2**26


class Basis(enum.Enum):
    FIRST = "first"
    SECOND = "second"


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ChebGrid:
    """Roots of U_{N+1} with the weights w_j = pi*sqrt(1-x_j^2)/(N+2).

    Attributes:
        size: N; the grid has N+1 points.
        points: strictly increasing, symmetric about 0, all in (-1, 1).
        weights: positive, symmetric; sum w_j |f(x_j)| -> integral |f| as N grows.
        sines: sqrt(1 - x_j^2) = sin(theta_j), kept because it is exact where
            1 - x_j^2 would lose digits near the endpoints.
    """

    size: int
    points: np.ndarray
    weights: np.ndarray
    sines: np.ndarray

    @cached_property
    def thetas(self) -> np.ndarray:
        """Angles with x_j = cos(theta_j), decreasing from ~pi to ~0."""
        n = self.size
        j = np.arange(n + 1)
        return _frozen((n + 1 - j) * np.pi / (n + 2))


def build_grid(N: int) -> ChebGrid:
    """Grid of the N+1 roots of U_{N+1}, ascending, with quadrature weights."""
    if N < 0:
        raise ValueError("grid size N must be >= 0")
    j = np.arange(N + 1)
    # x_j = cos((N+1-j)pi/(N+2)) written through sin so that x_j = -x_{N-j}
    # holds exactly in floating point; the cosine gives sin(theta_j) exactly
    # symmetric as well.
    half = np.pi * (2 * j - N) / (2 * (N + 2))
    x = np.sin(half)
    s = np.cos(half)
    w = np.pi * s / (N + 2)
    return ChebGrid(size=N, points=_frozen(x), weights=_frozen(w), sines=_frozen(s))


def first_to_second(a: np.ndarray) -> np.ndarray:
    """Coefficients of sum a_j T_j re-expressed as sum c_j U_j.

    Uses T_0 = U_0, T_1 = U_1/2, T_j = (U_j - U_{j-2})/2.
    """
    a = np.asarray(a, dtype=float)
    n = len(a) - 1
    c = np.zeros(n + 1)
    pad = np.concatenate([a, [0.0, 0.0]])
    c[0] = a[0] - pad[2] / 2.0
    if n >= 1:
        k = np.arange(1, n + 1)
        c[1:] = (a[1:] - pad[k + 2]) / 2.0
    return c


def second_to_first(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`first_to_second`, along the last axis."""
    c = np.asarray(c, dtype=float)
    n = c.shape[-1] - 1
    a = np.zeros(c.shape[:-1] + (n + 3,))
    # a_k = 2 c_k + a_{k+2}: twice a running sum from the top, per parity
    # (np.cumsum adds in order, so this rounds as the recurrence does, and
    # zeros padded above a row's degree add exact zeros)
    for start in (1, 2):
        a[..., start : n + 1 : 2] = 2.0 * np.cumsum(c[..., start::2][..., ::-1], axis=-1)[..., ::-1]
    a[..., 0] = c[..., 0] + a[..., 2] / 2.0
    return a[..., : n + 1]


def clenshaw(coeffs: np.ndarray, basis: Basis, x, rows=None):
    """sum_k c_k T_k(x) (or U_k) by Clenshaw's recurrence.

    coeffs is one series (1-D), or a stack of series, one per row of a 2-D
    array; then rows, an integer array broadcastable against x, names the
    row that each point reads. Each step fetches one coefficient column, so
    a row zero-padded above its degree adds exact zeros, and its values are
    bitwise those of its own unpadded series.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    if rows is None:  # iterated directly: a 2-D index per step costs ~4% at few points
        high, c0 = c[:0:-1], c[0]
    else:
        high, c0 = (c[rows, k] for k in range(c.shape[1] - 1, 0, -1)), c[rows, 0]
    b1 = b2 = np.zeros_like(x)
    for ck in high:
        b1, b2 = ck + 2.0 * x * b1 - b2, b1
    if basis is Basis.FIRST:
        return c0 + x * b1 - b2
    return c0 + 2.0 * x * b1 - b2


def tcheb_values(kmax: int, x) -> np.ndarray:
    """T_k(x) for k = 0..kmax as an array of shape (kmax+1,) + x.shape.

    Only valid for |x| <= 1 (uses the cosine form, which is exact there).
    """
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    theta = np.arccos(x)
    k = np.arange(kmax + 1).reshape((kmax + 1,) + (1,) * x.ndim)
    return np.cos(k * theta)


def secondkind_segment_integrals(n: int, bounds) -> np.ndarray:
    """Table I[j, i] = integral of U_j over [bounds[i], bounds[i+1]], for
    j = 0..n and each pair of consecutive bounds, shape (n+1, len(bounds)-1).

    Uses integral U_j = T_{j+1}/(j+1) and differences each term on its own,
    (T_{j+1}(b_{i+1}) - T_{j+1}(b_i))/(j+1): summing a series' antiderivative
    first and differencing after loses digits to cancellation.
    """
    T = tcheb_values(n + 1, np.asarray(bounds, dtype=float))
    table = T[1:, 1:] - T[1:, :-1]
    table /= np.arange(1, n + 2)[:, None]  # in place: at high n the table is large
    return table


def gap_moments(signs, n: int) -> np.ndarray:
    """mu_j = sum_i signs[i] * integral of U_j over gap i, for j = 0..n <= m-1.

    The m = len(signs) gaps lie between consecutive points of cos(k pi/m),
    k = m..0, in ascending x (the nodes of build_grid(m-2) and +-1). With
    h = pi/m and t the gap's midpoint angle, integral U_j = 2 sin((j+1)t)
    sin((j+1)h/2)/(j+1), and t = (l+1/2)h over the reversed gaps, so the sum
    is one DST-II. Equals secondkind_segment_integrals(n, bounds) @ signs at
    the exact nodes, in O(m log m) and without the table.
    """
    s = np.asarray(signs, dtype=float)
    m = len(s)
    if not 0 <= n < m:
        raise ValueError("need 0 <= n < len(signs)")
    j = np.arange(1, n + 2)
    return np.sin(j * (np.pi / (2 * m))) / j * scipy.fft.dst(s[::-1], type=2)[: n + 1]


def gap_integrals(coeffs, m: int) -> np.ndarray:
    """Integral of the second-kind series sum_j coeffs[j] U_j over each of the
    m gaps of :func:`gap_moments`, ascending: coeffs @ secondkind_segment_integrals
    at the exact nodes, as one DST-III of c_j sin((j+1)h/2)/(j+1).

    The half-angle form needs no antiderivative differencing, so it does not
    lose digits to cancellation.
    """
    c = np.asarray(coeffs, dtype=float)
    if not 0 < len(c) <= m:
        raise ValueError("need 1 <= len(coeffs) <= m")
    j = np.arange(1, len(c) + 1)
    d = np.zeros(m)
    d[: len(c)] = c * np.sin(j * (np.pi / (2 * m))) / j
    d[m - 1] *= 2.0  # DST-III halves its last input
    return scipy.fft.dst(d, type=3)[::-1]


def extrema_values(a, M: int) -> np.ndarray:
    """sum_j a_j T_j at the M+1 points cos(k pi/M), k = 0..M (descending x),
    by one DCT-I of length M+1 of the first-kind coefficients a.

    A degree above M is folded first: T_j(cos(k pi/M)) = cos(jk pi/M) has
    period 2M in j and is even about j = M, so a_j moves to j mod 2M,
    reflected to 2M - (j mod 2M) past M.
    """
    a = np.asarray(a, dtype=float)
    j = np.arange(len(a)) % (2 * M)
    y = np.bincount(np.minimum(j, 2 * M - j), weights=a, minlength=M + 1)
    y[1:M] *= 0.5  # DCT-I weighs its inner inputs twice
    return scipy.fft.dct(y, type=1)


def gap_values(series: "ChebSeries", m: int, per_gap: int):
    """(x, values, noise): `series` at per_gap theta-uniform interior points of
    each of the m gaps of :func:`gap_moments`.

    x and values have shape (m, per_gap), gaps and points in ascending x.
    The points are x = cos(k pi/M) with M = m(per_gap+1), so all the values
    come from one DCT-I of length M+1 of the first-kind coefficients a.
    noise bounds |values - series(x)| apart from the rounding series(x)
    itself would carry: the transform's rounding, eps log2(M+1) sum|a_j|
    (the usual fast-transform growth), plus eps sum j^2|a_j| for evaluating at
    the exact cos(k pi/M) rather than at its floating-point x (|T_j'| <= j^2).
    """
    a = series.to_basis(Basis.FIRST).coeffs
    M = m * (per_gap + 1)
    if len(a) > M:
        raise ValueError("series degree too high for the sample grid")
    on_grid = extrema_values(a, M)
    k = (m - np.arange(m)[:, None]) * (per_gap + 1) - np.arange(1, per_gap + 1)
    x = np.sin(np.pi * (M - 2 * k) / (2 * M))  # cos(k pi/M), symmetric as in build_grid
    j = np.arange(len(a))
    eps = np.finfo(float).eps
    noise = eps * float(np.log2(M + 1) * np.sum(np.abs(a)) + np.sum(j * j * np.abs(a)))
    return x, on_grid[k], noise


def chebvander_second(x, n: int) -> np.ndarray:
    """Vandermonde matrix V[i, j] = U_j(x_i) for j = 0..n.

    Raises TooLarge, before allocating, when V would hold more than
    VANDERMONDE_MAX_ENTRIES entries.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size * (n + 1) > VANDERMONDE_MAX_ENTRIES:
        raise TooLarge(
            f"a {x.size} x {n + 1} Vandermonde matrix exceeds the "
            f"{VANDERMONDE_MAX_ENTRIES}-entry guard"
        )
    V = np.empty((x.size, n + 1))
    V[:, 0] = 1.0
    if n >= 1:
        V[:, 1] = 2.0 * x
    for j in range(2, n + 1):
        V[:, j] = 2.0 * x * V[:, j - 1] - V[:, j - 2]
    return V


@dataclass(frozen=True, eq=False)
class ChebSeries:
    """A finite Chebyshev series sum_j coeffs[j] * T_j (or U_j).

    Immutable; arithmetic returns new series. Trailing coefficients may be
    zero, so `degree` is the nominal length-1, and `trimmed_degree` drops the
    numerically zero tail.
    """

    basis: Basis
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(np.atleast_1d(self.coeffs)))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D array")

    # -- basics ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def coeff_max(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def trimmed(self, tol_abs: float = 0.0) -> "ChebSeries":
        """Drop trailing coefficients with |c_j| <= tol_abs."""
        c = self.coeffs
        keep = len(c)
        while keep > 1 and abs(c[keep - 1]) <= tol_abs:
            keep -= 1
        return ChebSeries(self.basis, c[:keep]) if keep < len(c) else self

    @property
    def trimmed_degree(self) -> int:
        return self.trimmed(0.0).degree

    def __call__(self, x):
        return clenshaw(self.coeffs, self.basis, x)

    # -- conversions ----------------------------------------------------
    def to_basis(self, basis: Basis) -> "ChebSeries":
        if basis is self.basis:
            return self
        if basis is Basis.SECOND:
            return ChebSeries(Basis.SECOND, first_to_second(self.coeffs))
        return ChebSeries(Basis.FIRST, second_to_first(self.coeffs))

    # -- arithmetic -----------------------------------------------------
    def _coerced(self, other: "ChebSeries") -> np.ndarray:
        other = other.to_basis(self.basis)
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n)
        a[: len(self.coeffs)] = self.coeffs
        b = np.zeros(n)
        b[: len(other.coeffs)] = other.coeffs
        return a, b

    def __add__(self, other: "ChebSeries") -> "ChebSeries":
        a, b = self._coerced(other)
        return ChebSeries(self.basis, a + b)

    def __sub__(self, other: "ChebSeries") -> "ChebSeries":
        a, b = self._coerced(other)
        return ChebSeries(self.basis, a - b)

    def __mul__(self, scalar: float) -> "ChebSeries":
        return ChebSeries(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ChebSeries":
        return self * -1.0

    # -- calculus -------------------------------------------------------
    def derivative(self) -> "ChebSeries":
        return differentiate(self)

    def integrate(self, a: float = -1.0, b: float = 1.0) -> float:
        """Exact integral of the series over [a, b] within [-1, 1]."""
        c = self.to_basis(Basis.SECOND).coeffs
        return float(c @ secondkind_segment_integrals(len(c) - 1, [a, b])[:, 0])

    def __repr__(self) -> str:  # compact: long coefficient arrays are noise
        return f"ChebSeries({self.basis.value}, degree={self.degree})"


def chebpts_first(m: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """m Chebyshev points of the first kind mapped to [a, b], descending in
    the canonical DCT ordering x_k = cos(pi (2k+1)/(2m))."""
    k = np.arange(m)
    t = np.cos(np.pi * (2 * k + 1) / (2 * m))
    return 0.5 * (a + b) + 0.5 * (b - a) * t


def coeffs_from_values(vals: np.ndarray) -> np.ndarray:
    """First-kind coefficients of the interpolants at first-kind points, along the last axis."""
    m = vals.shape[-1]
    a = scipy.fft.dct(vals, type=2, axis=-1) / m
    a[..., 0] /= 2.0
    return a


def interpolant(fn, m: int, a: float = -1.0, b: float = 1.0) -> ChebSeries:
    """Degree m-1 interpolant of the vectorized fn at m first-kind points of
    [a, b], as a first-kind series in the local coordinate of [a, b]. Exact
    when fn is a polynomial of degree < m on [a, b]."""
    vals = np.asarray(fn(chebpts_first(m, a, b)), dtype=float)
    return ChebSeries(Basis.FIRST, coeffs_from_values(vals))


def interpolate_on_grid(f, n: int) -> ChebSeries:
    """Degree <= n interpolant of f at the n+1 roots of U_{n+1}.

    Computed from the discrete orthogonality
    sum_l U_i(x_l) U_j(x_l) (1 - x_l^2) = (n+2)/2 * delta_ij,
    so c_j = 2/(n+2) * sum_l sin(theta_l) sin((j+1) theta_l) f(x_l). With
    theta_l = (n+1-l) pi/(n+2) that sum is a DST-I of the reversed
    sin(theta_l) f(x_l). f is a vectorized evaluator, or has one as f.eval.
    Returns a second-kind series.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    grid = build_grid(n)
    evaluate = getattr(f, "eval", f)
    vals = np.asarray(evaluate(grid.points), dtype=float)
    c = scipy.fft.dst((grid.sines * vals)[::-1], type=1) / (n + 2)
    return ChebSeries(Basis.SECOND, c)


def differentiate(series: ChebSeries) -> ChebSeries:
    """Exact derivative, returned in the second-kind basis.

    Route through the first kind and use T_k' = k U_{k-1}.
    """
    a = series.to_basis(Basis.FIRST).coeffs
    if len(a) == 1:
        return ChebSeries(Basis.SECOND, np.zeros(1))
    d = a[1:] * np.arange(1, len(a))
    return ChebSeries(Basis.SECOND, d)
