"""Named target functions, including the pinned corruption experiments.

Catalog entries let every workflow run without expression input:
  sqrt1mx2            sqrt(1 - x^2)
  absx                |x|
  absx14              |x - 1/4|
  expsin10            exp(x) sin(10x)
  corrupted_t5        T_5 plus corruption supported on [-.7,-.67] u [.9,.903]
  legendre8_corrupted Legendre P_8 plus corruption of total measure 0.349
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre

from .errors import SubdivisionLimit
from .expressions import Expression, parse_expression
from .funcrep import Corruption, FuncRep
from .rootfind import roots_in_interval

__all__ = [
    "CATALOG_NAMES",
    "catalog_function",
    "corrupted",
    "funcrep_from_expression",
    "resolve_function",
]

T5_COEFFS_FIRST = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

LEGENDRE8_INTERVALS = ((-0.5, -0.35), (-0.05, 0.10), (0.40, 0.449))
T5_INTERVALS = ((-0.7, -0.67), (0.9, 0.903))


def _t5(x):
    return np.cos(5.0 * np.arccos(np.clip(np.asarray(x, dtype=float), -1.0, 1.0)))


def _p8(x):
    return legendre.legval(np.asarray(x, dtype=float), [0.0] * 8 + [1.0])


def corrupted(clean, omega, corruption: Corruption, name: str) -> FuncRep:
    """FuncRep of clean(x), plus omega(x) on the corruption support."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return clean(x) + np.where(corruption.contains(x), omega(x), 0.0)

    return FuncRep(evaluate, corruption=corruption, name=name)


def catalog_function(name: str) -> FuncRep:
    if name == "sqrt1mx2":
        return FuncRep(
            lambda x: np.sqrt(np.maximum(0.0, 1.0 - np.asarray(x, dtype=float) ** 2)),
            name=name,
        )
    if name == "absx":
        return FuncRep(np.abs, breakpoints=[0.0], name=name)
    if name == "absx14":
        return FuncRep(lambda x: np.abs(np.asarray(x, dtype=float) - 0.25), breakpoints=[0.25], name=name)
    if name == "expsin10":
        return FuncRep(
            lambda x: np.exp(np.asarray(x, dtype=float)) * np.sin(10.0 * np.asarray(x, dtype=float)),
            name=name,
        )
    if name == "corrupted_t5":
        corr = Corruption(intervals=T5_INTERVALS, clean=_t5)
        omega = lambda x: 2.0 * np.cos(35.0 * x) + 0.8
        return corrupted(_t5, omega, corr, name)
    if name == "legendre8_corrupted":
        corr = Corruption(intervals=LEGENDRE8_INTERVALS, clean=_p8)
        omega = lambda x: 3.0 * np.sin(40.0 * x) + 0.5
        return corrupted(_p8, omega, corr, name)
    raise KeyError(f"unknown catalog function {name!r}")


CATALOG_NAMES = (
    "sqrt1mx2",
    "absx",
    "absx14",
    "expsin10",
    "corrupted_t5",
    "legendre8_corrupted",
)


def funcrep_from_expression(text: str) -> FuncRep:
    """FuncRep for an expression, with breakpoints at abs/sign argument roots."""
    expr = parse_expression(text)
    breakpoints: list[float] = []
    for arg in expr.kink_args:
        try:
            wrapped = Expression(text="<kink-arg>", _eval=arg, kink_args=())
            breakpoints.extend(roots_in_interval(FuncRep(wrapped).proxy))
        except SubdivisionLimit:
            continue  # splitting in the proxy will localize the kink instead
    return FuncRep(expr, breakpoints=breakpoints, name=text)


def resolve_function(spec: str) -> FuncRep:
    """Catalog name if known, otherwise an expression."""
    if spec in CATALOG_NAMES:
        return catalog_function(spec)
    return funcrep_from_expression(spec)
