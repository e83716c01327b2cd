"""Dense linear programming by a one-phase primal simplex.

Problems are stated as: maximize c.x subject to G x <= h, x sign-free, with
h >= 0 so that the origin is feasible.  Every LP of the fixpoint search has
that form (the band is ``|row . x| <= epsilon`` with epsilon > 0), so the
all-slack basis at the origin is the start vertex and no phase 1 is needed.
Internally each free variable is split into a difference of two nonnegative
variables and one slack is appended per constraint.  Bland's anti-cycling
rule picks the entering and leaving variables, so the iteration count is
finite; a hard budget of ``50 * (variables + constraints)`` pivots guards
against numerical stalls and raises :class:`SimplexBudgetError` when
exceeded.

Rows of [G | h] and the objective are equilibrated (scaled by their largest
absolute coefficient) before the tableau is built.  That is exactly
invertible, leaves the feasible set untouched, and keeps the tableau
well-conditioned when constraint rows span many orders of magnitude; the
reported value is recomputed from the caller's own data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector

__all__ = [
    "OPTIMAL",
    "UNBOUNDED",
    "LpProblem",
    "LpOutcome",
    "SimplexBudgetError",
    "solve",
]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10


class SimplexBudgetError(RuntimeError):
    """Pivot budget exhausted before the simplex finished."""


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  g x <= h  (x sign-free, h >= 0)."""

    objective: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "objective", as_vector(self.objective, "objective"))
        object.__setattr__(self, "g", as_matrix(self.g, "constraint matrix"))
        object.__setattr__(self, "h", as_vector(self.h, "constraint bounds"))
        if self.g.shape[1] != self.objective.shape[0]:
            raise ValueError(
                f"constraint matrix has {self.g.shape[1]} columns, "
                f"objective has {self.objective.shape[0]}"
            )
        if self.g.shape[0] != self.h.shape[0]:
            raise ValueError(
                f"constraint matrix has {self.g.shape[0]} rows, "
                f"bounds vector has {self.h.shape[0]}"
            )
        if (self.h < 0).any():
            raise ValueError(
                "constraint bounds must be nonnegative: the origin is the start vertex"
            )


@dataclass(frozen=True)
class LpOutcome:
    """Result of :func:`solve`; point/value are set only when optimal."""

    status: str
    point: np.ndarray | None = None
    value: float | None = None


def _pivot(tab: np.ndarray, rhs: np.ndarray, row: int, col: int) -> None:
    piv = tab[row, col]
    tab[row] /= piv
    rhs[row] /= piv
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    rhs -= factors * rhs[row]


def _iterate(
    tab: np.ndarray,
    rhs: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    budget: int,
) -> str:
    """Run primal simplex sweeps on (tab, rhs) in place until optimal or
    unbounded.  Bland's rule: the entering column is the lowest-index one with
    positive reduced cost, the leaving row breaks ratio ties by lowest basis
    index."""
    nrows, ncols = tab.shape
    used = 0
    while True:
        reduced = obj - obj[basis] @ tab
        reduced[basis] = 0.0
        entering = -1
        for j in range(ncols):
            if reduced[j] > PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        col = tab[:, entering]
        positive = col > PIVOT_TOL
        if not positive.any():
            return UNBOUNDED
        ratios = np.where(positive, np.maximum(rhs, 0.0) / np.where(positive, col, 1.0), np.inf)
        best = float(np.min(ratios))
        leaving = -1
        for i in range(nrows):
            if ratios[i] <= best + 1e-12 * (1.0 + best) and (
                leaving < 0 or basis[i] < basis[leaving]
            ):
                leaving = i
        if used >= budget:
            raise SimplexBudgetError(
                f"pivot budget of {budget} exhausted ({nrows} constraints)"
            )
        used += 1
        _pivot(tab, rhs, leaving, entering)
        basis[leaving] = entering


def solve(problem: LpProblem, iteration_budget: int | None = None) -> LpOutcome:
    """Solve an :class:`LpProblem`.

    Returns an :class:`LpOutcome` with status ``optimal`` (point and value
    set) or ``unbounded``.  ``iteration_budget`` overrides the default
    pivot budget of ``50 * (variables + constraints)``.
    """
    c = problem.objective
    n = c.shape[0]
    r = problem.g.shape[0]
    budget = 50 * (n + r) if iteration_budget is None else int(iteration_budget)

    # row equilibration of [G | h] and objective scaling (exactly invertible)
    row_scale = np.max(np.abs(problem.g), axis=1)
    row_scale[row_scale == 0.0] = 1.0
    g = problem.g / row_scale[:, None]
    rhs = problem.h / row_scale
    obj_scale = float(np.max(np.abs(c)))
    if obj_scale == 0.0:
        obj_scale = 1.0
    c_s = c / obj_scale

    # split free variables, append slacks; the all-slack basis is the origin
    tab = np.hstack([g, -g, np.eye(r)])
    obj = np.concatenate([c_s, -c_s, np.zeros(r)])
    basis = [2 * n + i for i in range(r)]

    if _iterate(tab, rhs, obj, basis, budget) == UNBOUNDED:
        return LpOutcome(UNBOUNDED)
    x_split = np.zeros(tab.shape[1])
    x_split[basis] = rhs
    x = x_split[:n] - x_split[n : 2 * n]
    x.setflags(write=False)
    return LpOutcome(OPTIMAL, point=x, value=float(c @ x))
