"""Best-L1 polynomial approximation, corrupted-polynomial recovery, and
error-localization measurements on [-1, 1].

The package namespace holds the entry points; everything else is imported
from its submodule (l1rec.chebyshev, l1rec.funcrep, l1rec.recovery, ...).
"""

from .chebyshev import Basis, ChebSeries
from .errors import (
    DomainError,
    ExchangeStalled,
    L1RecError,
    NoConvergence,
    NotFound,
    ParseError,
    SolverFailure,
    StepFailure,
    SubdivisionLimit,
    TooLarge,
)
from .funcrep import FuncRep, norm
from .localization import minimax, omega_measure
from .newton import best_l1
from .recovery import recover_l1

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "ChebSeries",
    "FuncRep",
    "best_l1",
    "minimax",
    "norm",
    "omega_measure",
    "recover_l1",
    "DomainError",
    "ExchangeStalled",
    "L1RecError",
    "NoConvergence",
    "NotFound",
    "ParseError",
    "SolverFailure",
    "StepFailure",
    "SubdivisionLimit",
    "TooLarge",
    "__version__",
]
