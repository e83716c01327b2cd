"""Dense linear programming over a symmetric band by a one-phase simplex.

Every LP of the fixpoint search asks for the largest value of ``c . x``
over a band ``|s x| <= epsilon``, with x sign-free.  :func:`maximize` states
it as ``[s; -s] x <= epsilon``; as epsilon >= 0 the origin is feasible, so
the all-slack basis at the origin is the start vertex and no phase 1 is
needed.  Internally each free variable is split into a difference of two
nonnegative variables and one slack is appended per constraint.

All simplex state lives in one compact tableau that keeps only the
nonbasic columns.  At the origin it is ``[G | -G | h]`` over the
reduced-cost row ``[c | -c | 0]``, with ``G = [s; -s]``, the right-hand
side ``h`` as the last column, and the label arrays ``basis`` and
``nonbasic`` naming the variable of each row and of each column.  A pivot
swaps two labels and writes the leaving variable's column where the
entering one stood, so the unit columns of the basic variables are never
stored.

The entering column is Dantzig's: the one with the largest reduced cost.
One ``argmax`` of the reduced-cost row both picks it and ends the phase:
the LP is optimal when no reduced cost exceeds ``PIVOT_TOL``.  As
``argmax`` returns the first NaN, a full scan of the row confirms the end
whenever the picked entry fails that test.  The ratio test runs over the
candidate rows only, those whose pivot-column entry exceeds ``PIVOT_TOL``,
and the leaving row is, among their ratio ties, the one whose basic
variable has the smallest label.  Rows that are no candidate never enter
the choice, except on an inf or NaN ratio, where the choice is the one a
scan over every row would make.  Dantzig's rule can cycle on a degenerate
vertex, so after half the pivot budget the entering scan switches to
Bland's rule (the improving column with the smallest label), which with
that leaving rule never cycles.  The iteration count is therefore finite;
a hard budget of ``50 * (variables + constraints)`` pivots guards against
numerical stalls and raises :class:`SimplexBudgetError` when exceeded.

Rows of [G | h] and the objective are equilibrated (scaled by their largest
absolute coefficient) before the tableau is built.  That is exactly
invertible, leaves the feasible set untouched, and keeps the tableau
well-conditioned when constraint rows span many orders of magnitude; the
reported value is recomputed from the caller's own data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OPTIMAL", "UNBOUNDED", "LpOutcome", "SimplexBudgetError", "check_band", "maximize"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10


class SimplexBudgetError(RuntimeError):
    """Pivot budget exhausted before the simplex finished."""


@dataclass(frozen=True)
class LpOutcome:
    """Result of :func:`maximize`; point/value are set only when optimal, and
    ``pivots`` counts the pivots taken on either outcome."""

    status: str
    point: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``(row, col)``: the variable of column ``col`` enters the
    basis in constraint row ``row``, and the leaving variable takes over
    column ``col`` (the caller swaps the two labels).

    The column is first overwritten by the leaving variable's unit column,
    so one rank-one update, applied in place, moves the whole tableau (the
    constraint rows, the right-hand-side column and the reduced-cost row
    alike) and writes the leaving column as the full tableau would:
    ``1 / pivot`` in the pivot row and ``-factor / pivot`` elsewhere.
    """
    pivot = tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    tab[row] /= pivot
    tab -= np.multiply.outer(factors, tab[row])


def check_band(s: np.ndarray, epsilon: float) -> float:
    """``epsilon`` as a float, once the band ``|s x| <= epsilon`` has passed
    the checks :func:`maximize` makes before any simplex.  Raises
    :class:`ValueError` when epsilon is negative or not finite, and
    :class:`OverflowError` when epsilon over the largest entry of a row of
    ``s`` has no float value, as the scaled tableau would then hold inf."""
    epsilon = float(epsilon)
    if not 0.0 <= epsilon < np.inf:
        raise ValueError("epsilon must be finite and nonnegative: the origin is the start vertex")
    # the largest scaled bound comes from the smallest nonzero row scale; a
    # division of Python floats overflows to inf without a numpy warning
    scale = np.abs(s).max(axis=1)
    if epsilon / float(scale.min(where=scale > 0.0, initial=np.inf)) == np.inf:
        raise OverflowError("epsilon over a band row's scale left the floating-point range")
    return epsilon


def maximize(objective: np.ndarray, s: np.ndarray, epsilon: float) -> LpOutcome:
    """Maximize ``objective . x`` subject to ``|s x| <= epsilon``, x sign-free.

    Returns an :class:`LpOutcome` with status ``optimal`` (point and value
    set) or ``unbounded``.  Raises :class:`OverflowError` when epsilon over
    the largest entry of a row of ``s`` has no float value, as the scaled
    tableau would then hold inf, and when the maximum has none.
    """
    epsilon = check_band(s, epsilon)
    g = np.vstack([s, -s])
    return _simplex(objective, g, np.full(g.shape[0], epsilon))


def _simplex(c: np.ndarray, g: np.ndarray, h: np.ndarray, iteration_budget=None) -> LpOutcome:
    """Maximize ``c . x`` subject to ``g x <= h`` (x sign-free, h >= 0) from
    float arrays.  ``iteration_budget`` overrides the default pivot budget
    of ``50 * (variables + constraints)``.  Raises :class:`OverflowError`
    when the maximum has no float value."""
    n = c.shape[0]
    r = g.shape[0]
    budget = 50 * (n + r) if iteration_budget is None else int(iteration_budget)

    # row equilibration of [G | h] and objective scaling (exactly invertible)
    row_scale = np.max(np.abs(g), axis=1)
    row_scale[row_scale == 0.0] = 1.0
    g = g / row_scale[:, None]
    h = h / row_scale
    obj_scale = float(np.max(np.abs(c)))
    if obj_scale == 0.0:
        obj_scale = 1.0
    c_s = c / obj_scale

    # split free variables; the slacks start basic at the origin, where the
    # reduced costs are the scaled objective itself
    tab = np.vstack([np.hstack([g, -g, h[:, None]]), np.concatenate([c_s, -c_s, [0.0]])])
    basis = np.arange(2 * n, 2 * n + r)
    nonbasic = np.arange(2 * n)
    reduced, rhs = tab[-1, :-1], tab[:-1, -1]  # views, updated in place by _pivot

    for pivots in itertools.count():
        # Dantzig's rule, then Bland's for the second half of the budget
        if pivots < budget // 2:
            col = int(reduced.argmax())
            # argmax returns the first NaN, so only a full scan may end
            if not reduced[col] > PIVOT_TOL and not (reduced > PIVOT_TOL).any():
                break
        else:
            improving = reduced > PIVOT_TOL
            if not improving.any():
                break
            col = int(np.argmin(np.where(improving, nonbasic, 2 * n + r)))
        column = tab[:-1, col]
        candidates = (column > PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            return LpOutcome(UNBOUNDED, pivots=pivots)
        ratios = np.maximum(rhs[candidates], 0.0) / column[candidates]
        best = float(ratios.min())
        limit = best + 1e-12 * (1.0 + best)
        if limit < np.inf:
            ties = candidates[ratios <= limit]
        else:  # an inf or NaN ratio: every row ties, or none and row 0 is taken
            ties = np.arange(r) if limit == np.inf else np.zeros(1, dtype=int)
        row = int(ties[basis[ties].argmin()])
        if pivots >= budget:
            raise SimplexBudgetError(f"pivot budget of {budget} exhausted ({r} constraints)")
        _pivot(tab, row, col)
        basis[row], nonbasic[col] = nonbasic[col], basis[row]

    x_split = np.zeros(2 * n + r)
    x_split[basis] = rhs
    x = x_split[:n] - x_split[n : 2 * n]
    x.setflags(write=False)
    # a maximum past the float range raises, not warns
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(c @ x)
    if not math.isfinite(value):
        raise OverflowError("the maximum left the floating-point range")
    return LpOutcome(OPTIMAL, point=x, value=value, pivots=pivots)
