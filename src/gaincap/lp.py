"""Dense linear programming over a symmetric band by a one-phase simplex.

Every LP of the fixpoint search asks for the largest value of ``c . x``
over a band ``|s x| <= epsilon``, x sign-free, stated as
``[s; -s] x <= epsilon``.  As epsilon >= 0 the origin is feasible, so the
all-slack basis at the origin is the start vertex and no phase 1 is needed.
A :class:`Band` holds the band of a stack that grows by one block of rows
per step, and :meth:`Band.maxima` gives each row of the next block its
maximum.  Each block is equilibrated (each row scaled by its largest
absolute entry) once, by :func:`equilibrate`, for its LPs and its join;
that is exactly invertible, leaves the feasible set untouched, and keeps
the tableau well-conditioned when rows span many orders of magnitude.  The
LPs over one stack copy one shared tableau body.  While the stack has rank
below n the band is a cylinder: it grows an orthonormal basis of the row
space by Gram-Schmidt, with no SVD, and answers a row clearly outside that
space as unbounded (inf) without a simplex.  A band of exactly n rows at
rank n (a search's step n/p - 1 when p divides n) is a parallelepiped and
needs no simplex either: with ``z = G x`` its LP is ``max y . z`` over the
box ``|z| <= h``, ``y = c G^-1``, whose maximum is the vertex ``z = h``
with the signs of ``y`` (either sign where ``y`` is 0).  One inverse of
``G`` serves all LPs over the band, each reported with 0 pivots.

The LPs of one block share one tableau.  The first starts at the origin;
each later one starts from the vertex the one before it left, which is
feasible as the band is the same, with the reduced costs of its own
objective recomputed there in one matvec, ``cost_N - cost_B . T``.  When
the new objective is negative at that vertex, the LP maximizes its
negation instead and negates the point: the band is centrally symmetric,
so both have the same maximum.  A single LP, :meth:`Band.maximize` called
directly, :func:`maximize` or :func:`_simplex`, starts at the origin.

All simplex state lives in one compact tableau that keeps only the
nonbasic columns: each free variable is split into two nonnegative ones
and each constraint has a slack.  At the origin the tableau is
``[G | -G | h]``, with ``G`` the equilibrated ``[s; -s]`` and the scaled
bounds ``h``, over the reduced-cost row ``[c | -c | 0]``; the label lists
``basis`` and ``nonbasic`` name the variable of each row and column.  A
pivot swaps two labels and writes the leaving variable's column where the
entering one stood, so the unit columns of basic variables are never stored.

The entering column is Dantzig's, the one with the largest reduced cost.
One ``argmax`` both picks it and ends the phase: the LP is optimal when no
reduced cost exceeds ``PIVOT_TOL``.  As ``argmax`` returns the first NaN,
a full scan of the row confirms the end whenever the picked entry fails
that test.  A structural variable (x+ or x-) that has entered the basis
stands for a sign-free x, so it is free and does not leave: the ratio test
compares the pivot column with a floor per row, ``PIVOT_TOL`` for a slack
row and inf for a structural one.  The candidate rows are those whose
entry exceeds its floor, and the leaving row is, among their ratio ties,
the one whose basic variable has the smallest label.  A ratio past the
float range is inf, so it never blocks a finite one.  Rows that are no
candidate never enter the choice, except on a NaN ratio or when no ratio
is finite, where the choice is the one a scan over every row would make,
structural rows included.  Dantzig's rule can cycle on a degenerate
vertex, so after half the pivot budget the entering scan switches to
Bland's rule (the improving column with the smallest label), which with
that leaving rule never cycles.  A hard budget of ``50 * (variables +
constraints)`` pivots guards against numerical stalls and raises
:class:`SimplexBudgetError` when exceeded.  The simplex prices the
equilibrated objective row, scaled once with its block; the reported value
is recomputed from the caller's own row.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import as_real

__all__ = ["OPTIMAL", "UNBOUNDED", "Band", "LpOutcome", "SimplexBudgetError", "equilibrate",
           "maximize"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
EPS = np.finfo(float).eps
# a row whose equilibrated part outside a band's row space has an entry
# above this is unbounded over the band; smaller parts are left to the simplex
UNBOUNDED_RESIDUAL = 1e-6


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


def equilibrate(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` with each row divided by its largest absolute entry, and
    those entries; a zero row has scale 1 and stays zero."""
    scale = np.maximum.reduce(np.abs(rows), axis=1)
    scale[scale == 0.0] = 1.0
    return rows / scale[:, None], scale


class Band:
    """The band ``|s x| <= epsilon`` of a stack of rows ``s`` that grows by
    :meth:`extend`, with what every LP over it shares.

    Each row joins equilibrated (see :func:`equilibrate`), with its bound
    scaled to ``epsilon / scale``, and ``s`` (as float64) at the first rank
    test or LP.  Raises :class:`ValueError` unless epsilon >= 0 is finite.
    """

    def __init__(self, s: np.ndarray, epsilon: float):
        rule = "finite and nonnegative: the origin is the start vertex"
        self.epsilon = as_real(epsilon, "epsilon", 0.0, rule)
        s = np.asarray(s, dtype=float)
        n = s.shape[1]
        self.size = self.rank = self._spanned = 0  # _spanned rows have entered the basis
        self._upper = np.empty((2 * n, 2 * n + 1))  # [rows | -rows | bounds], doubled when full
        self._basis = np.empty((n, n))  # the first `rank` rows span the row space
        self._body = self._block = self._inverse = None  # _block: the tableau a block's LPs share
        self._joining = equilibrate(s)  # joins before the next rank test or LP

    def extend(self, scaled: np.ndarray, scale: np.ndarray) -> None:
        """Let the rows ``scaled * scale[:, None]`` join the band, given as
        :func:`equilibrate` returns them.  Raises :class:`OverflowError`,
        before any row joins, when epsilon over the largest entry of a row
        has no float value, as the scaled tableau would then hold inf."""
        # the largest scaled bound comes from the smallest row scale; a
        # division of Python floats overflows to inf without a numpy warning
        if self.epsilon / float(scale.min(initial=np.inf)) == np.inf:
            raise OverflowError("epsilon over a band row's scale left the floating-point range")
        n, size = scaled.shape[1], self.size + scaled.shape[0]
        if size > self._upper.shape[0]:
            grown = np.empty((2 * size, 2 * n + 1))
            grown[: self.size] = self._upper[: self.size]
            self._upper = grown
        joining = self._upper[self.size : size]
        joining[:, :n] = scaled
        np.negative(joining[:, :n], out=joining[:, n:-1])
        joining[:, -1] = self.epsilon / scale
        self.size, self._body = size, None
        if self._block:  # a block's next LP starts over, at the origin of the grown band
            self._block.clear()

    def unbounded(self, scaled: np.ndarray) -> list[bool]:
        """Whether each of the equilibrated rows ``scaled`` lies clearly
        outside the row space of the band's equilibrated rows, which makes
        its LP unbounded: whether its part outside that space has an entry
        above ``UNBOUNDED_RESIDUAL``.  Smaller parts are left to the simplex.

        Rows that joined since the last call first enter the basis by
        Gram-Schmidt applied twice.  Row ``r`` adds a direction when its
        part outside the basis passes numpy's default rank tolerance, with
        ``sqrt(r * n)``, a bound on the norm of the equilibrated stack, for
        its largest singular value.  From rank n on no row is outside."""
        self._join()
        n = self._basis.shape[0]
        for row in self._upper[self._spanned : self.size, :n] if self.rank < n else ():
            self._spanned += 1
            basis = self._basis[: self.rank]
            part = row - (row @ basis.T) @ basis
            part -= (part @ basis.T) @ basis
            norm = math.sqrt(part @ part)
            if norm > max(self._spanned, n) * EPS * math.sqrt(self._spanned * n):
                self._basis[self.rank] = part / norm
                self.rank += 1
                if self.rank == n:
                    break
        if self.rank == n:
            return [False] * scaled.shape[0]
        basis = self._basis[: self.rank]
        return (np.abs(scaled - (scaled @ basis.T) @ basis).max(axis=1) > UNBOUNDED_RESIDUAL).tolist()

    def maximize(self, objective: np.ndarray, scaled: np.ndarray) -> LpOutcome:
        """Maximize ``objective . x`` over the band, x sign-free, priced by
        ``scaled``, the objective as :func:`equilibrate` scales it: an
        :class:`LpOutcome` with status ``optimal`` (point and value set) or
        ``unbounded``.  Raises :class:`OverflowError` when the maximum has
        no float value.  While :meth:`maxima` answers a block it starts
        from the vertex the block's previous LP left, and otherwise from
        the origin.  Once :meth:`unbounded` has found rank n for a band of
        exactly n rows ``G`` (as :meth:`maxima` does before its LPs), the
        maximizer is ``G^-1 copysign(h, scaled G^-1)`` in closed form, with
        0 pivots, from one inverse of ``G`` that serves all its LPs."""
        self._join()
        n = objective.shape[0]
        if self.size == self.rank == n:  # a parallelepiped: its vertex in closed form
            if self._inverse is None:  # G^-1; once rows join, the band is square no more
                self._inverse = np.linalg.inv(self._upper[:n, :n])
            with np.errstate(over="ignore", invalid="ignore"):
                x = self._inverse @ np.copysign(self._upper[:n, -1], scaled @ self._inverse)
            return _optimum(objective, x, 0)
        if self._body is None:  # [G | -G | h], shared until the next extend
            upper = self._upper[: self.size]
            self._body = np.concatenate([upper, -upper])
            self._body[self.size :, -1] *= -1.0  # -rows keep their bounds
        return _solve(self._body, objective, scaled, block=self._block)

    def maxima(self, rows: np.ndarray) -> Iterator[float]:
        """Yield the maximum of each float64 row of ``rows`` over the band, inf
        when unbounded, by :meth:`unbounded` or :meth:`maximize`.  ``rows`` are
        equilibrated once, for their LPs and, once all are yielded, for their
        join at the next call; a join raises as :meth:`extend` does.  The
        block's LPs share one tableau: each after the first starts from the
        vertex the one before it left."""
        scaled, scale = equilibrate(rows)
        self._block = []
        try:
            for row, row_s, outside in zip(rows, scaled, self.unbounded(scaled)):
                outcome = None if outside else self.maximize(row, row_s)
                yield math.inf if outside or outcome.status == UNBOUNDED else outcome.value
        finally:
            self._block = None
        self._joining = scaled, scale

    def _join(self) -> None:
        if self._joining is not None:  # rows of the constructor or the last maxima
            self.extend(*self._joining)
            self._joining = None


def maximize(objective: np.ndarray, s: np.ndarray, epsilon: float) -> LpOutcome:
    """:meth:`Band.maximize` over the band ``|s x| <= epsilon``, of float64 inputs."""
    c = np.asarray(objective, dtype=float)
    return Band(s, epsilon).maximize(c, equilibrate(c[None])[0][0])


def _simplex(c: np.ndarray, g: np.ndarray, h: np.ndarray, iteration_budget=None) -> LpOutcome:
    """Maximize ``c . x`` subject to ``g x <= h`` (x sign-free, h >= 0) from
    float arrays.  ``iteration_budget`` overrides the default pivot budget
    of ``50 * (variables + constraints)``.  Raises :class:`OverflowError`
    when the maximum has no float value."""
    g, row_scale = equilibrate(g)
    body = np.hstack([g, -g, (h / row_scale)[:, None]])
    return _solve(body, c, equilibrate(c[None])[0][0], iteration_budget)


def _reprice(tab: np.ndarray, basis: list, nonbasic: list, c_s: np.ndarray) -> bool:
    """Write the reduced costs of ``c_s`` at the tableau's vertex into its
    last row, ``cost_N - cost_B . T`` in one matvec, or, when ``c_s`` is
    negative at that vertex, those of ``-c_s``; whether it took ``-c_s``."""
    n = c_s.shape[0]
    costs = np.zeros(tab.shape[0] + 2 * n)  # by label, then 0 for the bounds column
    costs[:n] = c_s
    np.negative(c_s, out=costs[n : 2 * n])
    cost_n = costs.take(nonbasic + [costs.shape[0] - 1])
    np.subtract(cost_n, costs.take(basis) @ tab[:-1], out=tab[-1])
    if tab[-1, -1] > 0.0:  # minus the objective's value at the vertex
        np.negative(tab[-1], out=tab[-1])
        return True
    return False


def _solve(
    body: np.ndarray, c: np.ndarray, c_s: np.ndarray, iteration_budget=None, block=None
) -> LpOutcome:
    """The simplex over the equilibrated tableau body ``[G | -G | h]``,
    which it leaves untouched, priced by the equilibrated objective ``c_s``
    and valued by ``c``.  It starts at the origin unless ``block`` holds the
    tableau that an earlier LP over the same band body left, whose vertex it
    starts from (see :meth:`Band.maxima`); a list ``block`` is left holding
    this LP's tableau."""
    n, r = c.shape[0], body.shape[0]
    budget = 50 * (n + r) if iteration_budget is None else int(iteration_budget)

    if block:
        tab, basis, nonbasic, floor = block
        mirrored = _reprice(tab, basis, nonbasic, c_s)
    else:
        # split free variables; the slacks start basic at the origin, where
        # the reduced costs are the scaled objective itself
        tab = np.empty((r + 1, 2 * n + 1))
        tab[:-1], tab[-1, :n], tab[-1, -1] = body, c_s, 0.0
        np.negative(c_s, out=tab[-1, n:-1])
        basis, nonbasic = list(range(2 * n, 2 * n + r)), list(range(2 * n))
        # a row's least pivot-column entry to compete in the ratio test: a
        # basic structural is free, so its row does not compete
        floor = np.full(r, PIVOT_TOL)
        mirrored = False
        if block is not None:
            block[:] = tab, basis, nonbasic, floor
    reduced, rhs = tab[-1, :-1], tab[:-1, -1]  # views, updated in place by _pivot

    # a ratio or a tableau entry past the float range is inf; one errstate
    # for the whole loop costs less than one per ratio test
    with np.errstate(over="ignore"):
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
            candidates = (column > floor).nonzero()[0]
            if not candidates.size:
                return LpOutcome(UNBOUNDED, pivots=pivots)
            ratios = np.maximum(rhs[candidates], 0.0) / column[candidates]
            best = float(ratios[ratios.argmin()])  # the first NaN, as min gives NaN
            limit = best + 1e-12 * (1.0 + best)
            if limit < np.inf:
                ties = candidates[ratios <= limit]
            else:  # an inf or NaN ratio: every row ties, or none and row 0 is taken
                ties = np.arange(r) if limit == np.inf else np.zeros(1, dtype=int)
            row = int(ties[0]) if ties.size == 1 else min(ties.tolist(), key=basis.__getitem__)
            if pivots >= budget:
                raise SimplexBudgetError(f"pivot budget of {budget} exhausted ({r} constraints)")
            _pivot(tab, row, col)
            basis[row], nonbasic[col] = nonbasic[col], basis[row]
            floor[row] = np.inf if basis[row] < 2 * n else PIVOT_TOL

    x_split = np.zeros(2 * n + r)
    x_split[basis] = rhs
    x = x_split[:n] - x_split[n : 2 * n]
    if mirrored:  # the maximum of -c: the band is centrally symmetric
        np.negative(x, out=x)
    return _optimum(c, x, pivots)


def _optimum(c: np.ndarray, x: np.ndarray, pivots: int) -> LpOutcome:
    """The optimal outcome at the maximizer ``x``, read-only, valued as
    ``c . x`` on the caller's row.  Raises :class:`OverflowError`, without a
    numpy warning, when that value has no float value."""
    x.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(c @ x)
    if not math.isfinite(value):
        raise OverflowError("the maximum left the floating-point range")
    return LpOutcome(OPTIMAL, point=x, value=value, pivots=pivots)
