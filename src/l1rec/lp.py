"""Weighted l1 polynomial fitting as a sparse linear program.

minimize sum_i w_i (u_i + v_i)
subject to -v_i <= f(y_i) - sum_j c_j U_j(y_i) <= u_i,  u_i, v_i >= 0.

Solved with HiGHS through scipy.optimize.linprog; each constraint row touches
one u_i (or v_i) and the n+1 coefficient columns, which the sparse blocks
preserve. This LP is always feasible (u = max(r, 0), v = max(-r, 0) works for
any c), so an infeasible status can only mean an internal bug and aborts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .chebyshev import Basis, ChebSeries, chebvander_second
from .errors import CertificateUnavailable, SolverFailure

__all__ = ["LpStatus", "LpSolution", "WeightedL1Fit", "solve", "dual_certificate"]


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"
    INFEASIBLE = "infeasible"  # never returned: reaching it aborts


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
    u: np.ndarray
    v: np.ndarray
    objective: float
    duality_gap: float
    status: LpStatus


def solve(problem: WeightedL1Fit, gap_tol: float = 1e-10) -> LpSolution:
    """Solve the weighted l1 fit to certified optimality.

    gap_tol is relative to the objective scale; at OPTIMAL status the primal-
    dual gap reported by HiGHS multipliers is below gap_tol * scale.
    """
    if gap_tol <= 0:
        raise ValueError("gap_tol must be positive")
    n = problem.degree
    N1 = len(problem.points)
    Phi = chebvander_second(problem.points, n)
    eye = sp.identity(N1, format="csc")
    A_ub = sp.bmat(
        [[-sp.csc_matrix(Phi), -eye, None], [sp.csc_matrix(Phi), None, -eye]],
        format="csc",
    )
    b_ub = np.concatenate([-problem.values, problem.values])
    cost = np.concatenate([np.zeros(n + 1), problem.weights, problem.weights])
    bounds = [(None, None)] * (n + 1) + [(0, None)] * (2 * N1)
    feas = max(min(1e-9, gap_tol), 1e-11)
    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=bounds,
        method="highs",
        options={
            "presolve": True,
            "primal_feasibility_tolerance": feas,
            "dual_feasibility_tolerance": feas,
        },
    )
    if res.status == 2:
        raise RuntimeError("l1-fit LP reported infeasible: internal bug")
    if res.status in (3, 4):
        raise SolverFailure(f"l1-fit LP failed: {res.message}")
    status = LpStatus.OPTIMAL if res.status == 0 else LpStatus.ITERATION_LIMIT
    x = res.x
    coeffs = x[: n + 1]
    u = x[n + 1 : n + 1 + N1]
    v = x[n + 1 + N1 :]
    objective = float(np.dot(problem.weights, u + v))
    if res.status == 0:
        dual_obj = float(b_ub @ res.ineqlin.marginals)
        gap = abs(res.fun - dual_obj)
    else:
        gap = np.inf
    return LpSolution(
        coefficients=ChebSeries(Basis.SECOND, coeffs),
        u=u,
        v=v,
        objective=objective,
        duality_gap=gap,
        status=status,
    )


def dual_certificate(solution: LpSolution, problem: WeightedL1Fit) -> float:
    """max_j |sum_i w_i sigma_i U_j(y_i)| minimized over admissible subgradients.

    sigma_i = sign(residual_i) where the residual is nonzero; at zero
    residuals sigma_i ranges over [-1, 1] and is chosen (by a small auxiliary
    LP) to minimize the certificate. At a true optimum the result is
    <= 1e-8 * sum(w).
    """
    if solution.status is not LpStatus.OPTIMAL:
        raise CertificateUnavailable(f"status is {solution.status.value}")
    n = problem.degree
    r = problem.values - solution.coefficients(problem.points)
    ztol = 1e-9 * problem.scale
    zero = np.abs(r) <= ztol
    U = chebvander_second(problem.points, n)  # (N+1, n+1)
    g = (problem.weights * np.where(zero, 0.0, np.sign(r))) @ U
    if not np.any(zero):
        return float(np.max(np.abs(g)))
    # minimize t s.t. -t <= g_j + sum_z w_z U_j(y_z) s_z <= t, -1 <= s <= 1
    B = (problem.weights[zero, None] * U[zero, :]).T  # (n+1, Z)
    Z = B.shape[1]
    cost = np.concatenate([np.zeros(Z), [1.0]])
    A = np.block([[B, -np.ones((n + 1, 1))], [-B, -np.ones((n + 1, 1))]])
    b = np.concatenate([-g, g])
    bounds = [(-1.0, 1.0)] * Z + [(0.0, None)]
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if res.status != 0:
        return float(np.max(np.abs(g)))  # conservative fallback
    return float(res.x[-1])
