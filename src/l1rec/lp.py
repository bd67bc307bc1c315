"""Weighted l1 polynomial fitting, solved as the dual linear program.

The fit min_c sum_i w_i |f(y_i) - sum_j c_j U_j(y_i)| is solved through its
dual, the classical view of discrete l1 fitting (Barrodale & Roberts, SIAM J.
Numer. Anal. 10, 1973):

    maximize f^T z  subject to  Phi^T z = 0,  -w <= z <= w,   Phi_ij = U_j(y_i).

It has n+1 equality rows and box-bounded z, where the primal has 2(N+1)
inequality rows. HiGHS (through scipy.optimize.linprog, which minimizes
-f^T z) returns the fit as the equality marginals, with the sign convention
c = -res.eqlin.marginals (scipy 1.17.1). The optimum z = w sigma holds the
subgradient sigma in [-1, 1] with sigma_i = sign(r_i) off the zero residuals
r_i, which certifies c. Any HiGHS status other than optimal raises
SolverFailure: the dual is always feasible (z = 0 works), and no iteration
limit is set. HiGHS presolve is off: on these LPs it removes nothing, leaves
the coefficients bitwise unchanged, and costs up to 6x the solve itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .chebyshev import Basis, ChebSeries, chebvander_second
from .errors import SolverFailure

__all__ = ["LpSolution", "WeightedL1Fit", "solve"]

GAP_TOL = 1e-10  # HiGHS primal and dual feasibility tolerance


@dataclass(frozen=True, eq=False)
class WeightedL1Fit:
    """Samples (y_i, f(y_i)) with positive weights and a fit degree n <= N."""

    points: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    degree: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if not (len(pts) == len(w) == len(vals)):
            raise ValueError("points, weights, values must have equal length")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("points must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if not 0 <= self.degree <= len(pts) - 1:
            raise ValueError("need 0 <= degree <= N")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", vals)

    @property
    def scale(self) -> float:
        return max(float(np.max(np.abs(self.values))), 1e-300)


@dataclass(frozen=True, eq=False)
class LpSolution:
    coefficients: ChebSeries
    sigma: np.ndarray  # z / w, the subgradient the dual optimum carries
    objective: float
    duality_gap: float


def solve(problem: WeightedL1Fit) -> LpSolution:
    """Solve the weighted l1 fit through its dual LP.

    objective is sum(w |f - Phi c|) and duality_gap is |objective - f^T z|.
    """
    Phi = chebvander_second(problem.points, problem.degree)
    w, f = problem.weights, problem.values
    res = linprog(
        -f,
        A_eq=Phi.T,
        b_eq=np.zeros(problem.degree + 1),
        bounds=np.column_stack([-w, w]),
        method="highs",
        options={
            "presolve": False,
            "primal_feasibility_tolerance": GAP_TOL,
            "dual_feasibility_tolerance": GAP_TOL,
        },
    )
    if res.status != 0:
        raise SolverFailure(f"l1-fit LP failed: {res.message}")
    coeffs = -res.eqlin.marginals
    objective = float(np.dot(w, np.abs(f - Phi @ coeffs)))
    return LpSolution(
        coefficients=ChebSeries(Basis.SECOND, coeffs),
        sigma=np.clip(res.x / w, -1.0, 1.0),
        objective=objective,
        duality_gap=abs(objective - float(f @ res.x)),
    )
