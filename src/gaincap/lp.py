"""Dense linear programming over a symmetric band by a one-phase simplex.

Every LP of the fixpoint search asks for the largest value of ``c . x``
over a band ``|s x| <= epsilon``, x sign-free, stated as
``[s; -s] x <= epsilon``.  As epsilon >= 0 the origin is feasible, so the
all-slack basis at the origin is the start vertex and no phase 1 is needed.
A :class:`Band` holds the band of a stack that grows by one block of rows
per step, and :meth:`Band.maxima`, the one door into its LPs, yields an
:class:`LpOutcome` for each row of the next block.  Each block is
equilibrated (each row scaled by its largest absolute entry) once, by
:func:`equilibrate`, for its LPs and its join; that is exactly invertible,
leaves the feasible set untouched, and keeps the tableau well-conditioned
when rows span many orders of magnitude.

A band settles its rows where they join, in :meth:`Band.extend`.  While
the stack has rank below n the band is a cylinder: each joining row grows
an orthonormal basis of the row space by Gram-Schmidt, with no SVD, and
:meth:`Band.maxima` answers a row clearly outside that space as unbounded,
with 0 pivots and no LP (the rank test).  A band of exactly n rows at rank
n (a search's step n/p - 1 when p divides n) is a parallelepiped and needs
no simplex either: with ``z = G x`` its LP is ``max y . z`` over the box
``|z| <= h``, ``y = c G^-1``, whose maximum is the vertex ``z = h`` with
the signs of ``y`` (either sign where ``y`` is 0).  One inverse of ``G``,
taken at the join, serves every LP over the band, each reported with 0
pivots.

Every other LP over a band starts from the vertex the one before it left,
which is feasible as the band is the same, with the reduced costs of its
own objective computed there in one matvec, ``cost_N - cost_B . T``.  An
LP starts at the origin, the all-slack basis where ``cost_B`` is 0 and
that row is the objective's own, only on a fresh band or after rows join.
When the new objective is negative at its start vertex, the LP maximizes
its negation instead and negates the point: the band is centrally
symmetric, so both have the same maximum.  :func:`maximize` is the first
outcome of a fresh band's :meth:`Band.maxima`, and :func:`_simplex` solves
one LP over a program of its own.

All simplex state lives in one compact tableau that keeps only the
nonbasic columns: each free variable is split into two nonnegative ones
and each constraint has a slack.  At the origin the tableau is
``[g | -g | h]``, built by :func:`_origin` from equilibrated rows ``g``
(``[G; -G]`` for a band) and their scaled bounds ``h``, over the
reduced-cost row ``[c | -c | 0]``; the label lists ``basis`` and
``nonbasic`` name the variable of each row and column.  A pivot swaps two
labels and writes the leaving variable's column where the entering one
stood, so the unit columns of basic variables are never stored.

The entering column is Dantzig's, the one with the largest reduced cost.
One ``argmax`` both picks it and ends the phase: the LP is optimal when no
reduced cost exceeds ``PIVOT_TOL``.  As ``argmax`` returns the first NaN,
a full scan of the row confirms the end whenever the picked entry fails
that test.  A structural variable (x+ or x-) that has entered the basis
stands for a sign-free x, so it is free and does not leave: the ratio test
compares the pivot column with a floor per row, ``PIVOT_TOL`` for a slack
row and inf for a structural one.  The candidate rows are those whose
entry exceeds its floor, and the leaving row is, among their ratio ties,
the one whose basic variable has the smallest label.  A band of rank n is
bounded, so there the floor leaving no candidate means that it refused the
only pivots there are, not that a ray exists: the slack rows with a
positive entry are the candidates instead.  A ratio past the float range
is inf, so it never blocks a finite one; when no ratio is finite, or one
is NaN, the step has no float value and the simplex raises
:class:`OverflowError`.  Dantzig's rule can cycle on a degenerate vertex,
so after half the pivot budget the entering scan switches to Bland's rule
(the improving column with the smallest label), which with that leaving
rule never cycles.  A hard budget of ``50 * (variables + constraints)``
pivots guards against numerical stalls and raises
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
EPSILON_RULE = "finite and nonnegative: the origin is the start vertex"


class SimplexBudgetError(RuntimeError):
    """Pivot budget exhausted before the simplex finished."""


@dataclass(frozen=True)
class LpOutcome:
    """Result of one LP; point/value are set only when optimal, and
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
    :meth:`extend`, with what every LP over it shares; :meth:`maxima` asks
    its LPs and yields an :class:`LpOutcome` per row.

    Each row joins equilibrated (see :func:`equilibrate`), with its bound
    scaled to ``epsilon / scale``, and ``s`` (as float64) at the first
    :meth:`maxima`.  Raises :class:`ValueError` unless epsilon >= 0 is finite.
    """

    def __init__(self, s: np.ndarray, epsilon: float):
        self.epsilon = as_real(epsilon, "epsilon", 0.0, EPSILON_RULE)
        s = np.asarray(s, dtype=float)
        n = s.shape[1]
        self.size = self.rank = 0
        self._rows = np.empty((0, n + 1))  # [rows | bounds]
        self._basis = np.empty((n, n))  # the first `rank` rows span the row space
        self._vertex = self._inverse = None  # the last LP's simplex state; G^-1 if square
        self._joining = equilibrate(s)  # joins at the next maxima

    def extend(self, scaled: np.ndarray, scale: np.ndarray) -> None:
        """Let the rows ``scaled * scale[:, None]`` join the band, given as
        :func:`equilibrate` returns them, and settle them.  Until rank n, row
        ``r`` of the stack enters the basis by Gram-Schmidt applied twice and
        adds a direction when its part outside the basis passes numpy's
        default rank tolerance, with ``sqrt(r * n)``, a bound on the norm of
        the equilibrated stack, for its largest singular value.  A band of n
        rows at rank n keeps their inverse for its closed form.  Raises
        :class:`OverflowError`, before any row joins, when epsilon over the
        largest entry of a row has no float value (the tableau would hold inf)."""
        # the largest scaled bound comes from the smallest row scale; a
        # division of Python floats overflows to inf without a numpy warning
        if self.epsilon / float(scale.min(initial=np.inf)) == np.inf:
            raise OverflowError("epsilon over a band row's scale left the floating-point range")
        n = scaled.shape[1]
        joining = np.concatenate([scaled, (self.epsilon / scale)[:, None]], axis=1)
        self._rows = np.concatenate([self._rows, joining])
        for r, row in enumerate(self._rows[self.size :, :n] if self.rank < n else (), self.size + 1):
            basis = self._basis[: self.rank]
            part = row - (row @ basis.T) @ basis
            part -= (part @ basis.T) @ basis
            norm = math.sqrt(part @ part)
            if norm > max(r, n) * EPS * math.sqrt(r * n):
                self._basis[self.rank] = part / norm
                self.rank += 1
                if self.rank == n:
                    break
        self.size, self._vertex = self._rows.shape[0], None  # the next LP starts at the origin
        self._inverse = np.linalg.inv(self._rows[:, :n]) if self.size == self.rank == n else None

    def maxima(self, rows: np.ndarray) -> Iterator[LpOutcome]:
        """Yield, for each float64 row ``c`` of ``rows``, the maximum of ``c .
        x`` over the band, x sign-free, as an :class:`LpOutcome`, ``optimal``
        (point and value set) or ``unbounded``.  ``rows`` are equilibrated
        once, for their LPs and, once all are yielded, for their join at the
        next call; a join raises as :meth:`extend` does.  A row whose part
        outside the basis :meth:`extend` grew has an entry above
        ``UNBOUNDED_RESIDUAL`` is unbounded with 0 pivots and no LP (the rank
        test); smaller parts are left to :meth:`_maximize`."""
        scaled, scale = equilibrate(rows)
        if self._joining is not None:  # rows of the constructor or the last maxima
            self.extend(*self._joining)
            self._joining = None
        outside = [False] * len(rows)
        if self.rank < self._basis.shape[0]:
            basis = self._basis[: self.rank]
            residual = np.abs(scaled - (scaled @ basis.T) @ basis).max(axis=1)
            outside = (residual > UNBOUNDED_RESIDUAL).tolist()
        for row, row_s, out in zip(rows, scaled, outside):
            yield LpOutcome(UNBOUNDED) if out else self._maximize(row, row_s)
        self._joining = scaled, scale

    def _maximize(self, objective: np.ndarray, scaled: np.ndarray) -> LpOutcome:
        """The LP of ``objective`` for :meth:`maxima`, priced by ``scaled``,
        its equilibrated row.  n rows ``G`` at rank n answer in closed form,
        ``x = G^-1 copysign(h, scaled G^-1)`` with 0 pivots; any other LP
        starts where the band's previous simplex LP left, or at the origin
        after rows join.  Raises :class:`OverflowError` when the maximum has
        no float value."""
        if self._inverse is not None:  # a parallelepiped: its vertex in closed form
            with np.errstate(over="ignore", invalid="ignore"):
                x = self._inverse @ np.copysign(self._rows[:, -1], scaled @ self._inverse)
            return _optimum(objective, x, 0)
        if self._vertex is None:  # the origin, until the next extend
            g, h = self._rows[:, :-1], self._rows[:, -1]
            bounded = self.rank == self._basis.shape[0]
            self._vertex = _origin(np.concatenate([g, -g]), np.concatenate([h, h]), bounded)
        return _solve(self._vertex, objective, scaled)


def maximize(objective: np.ndarray, s: np.ndarray, epsilon: float) -> LpOutcome:
    """The one outcome of :meth:`Band.maxima` over a fresh band ``|s x| <=
    epsilon``, of float64 inputs, rank test included."""
    return next(Band(s, epsilon).maxima(np.asarray(objective, dtype=float)[None]))


def _simplex(c: np.ndarray, g: np.ndarray, h: np.ndarray, iteration_budget=None) -> LpOutcome:
    """Maximize ``c . x`` subject to ``g x <= h`` (x sign-free, h >= 0) from
    float arrays.  ``iteration_budget`` overrides the default pivot budget
    of ``50 * (variables + constraints)``.  Raises :class:`OverflowError`
    when the maximum has no float value."""
    g, row_scale = equilibrate(g)
    return _solve(_origin(g, h / row_scale), c, equilibrate(c[None])[0][0], iteration_budget)


def _origin(g: np.ndarray, h: np.ndarray, bounded: bool = False) -> tuple:
    """The simplex state at the origin of ``g x <= h``, x sign-free, from
    the equilibrated rows ``g`` and their scaled bounds ``h``: the tableau
    ``[g | -g | h]`` with a row for the reduced costs, the basic and
    nonbasic labels, the floor a row's pivot-column entry must pass in the
    ratio test (inf in a row whose structural is basic), and whether the
    program is known to be bounded, so that it has no ray."""
    r, n = g.shape
    tab = np.empty((r + 1, 2 * n + 1))
    np.concatenate([g, -g, h[:, None]], axis=1, out=tab[:-1])
    return tab, list(range(2 * n, 2 * n + r)), list(range(2 * n)), np.full(r, PIVOT_TOL), bounded


def _reprice(tab: np.ndarray, basis: list, nonbasic: list, c_s: np.ndarray) -> bool:
    """Write the reduced costs of ``c_s`` at the tableau's vertex into its
    last row, ``cost_N - cost_B . T`` in one matvec, or, when ``c_s`` is
    negative at that vertex, those of ``-c_s``; whether it took ``-c_s``.
    At the origin ``cost_B`` is 0, so on a finite tableau the row is
    ``[c_s | -c_s | 0]``."""
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


def _solve(state: tuple, c: np.ndarray, c_s: np.ndarray, iteration_budget=None) -> LpOutcome:
    """The simplex from the vertex of ``state``, as :func:`_origin` builds
    it or an earlier LP over the same band left it, priced by the
    equilibrated objective ``c_s`` (see :func:`_reprice`) and valued by
    ``c``; ``state`` is left at this LP's last vertex."""
    tab, basis, nonbasic, floor, bounded = state
    n, r = c.shape[0], tab.shape[0] - 1
    budget = 50 * (n + r) if iteration_budget is None else int(iteration_budget)
    mirrored = _reprice(tab, basis, nonbasic, c_s)
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
                if bounded:  # no ray: the floor refused the only pivots there are
                    candidates = ((column > 0.0) & (floor < np.inf)).nonzero()[0]
                if not candidates.size:
                    return LpOutcome(UNBOUNDED, pivots=pivots)
            ratios = np.maximum(rhs[candidates], 0.0) / column[candidates]
            best = float(ratios[ratios.argmin()])  # the first NaN, as min gives NaN
            limit = best + 1e-12 * (1.0 + best)
            if not limit < np.inf:  # no finite ratio, or a NaN one
                raise OverflowError("the simplex left the floating-point range")
            ties = candidates[ratios <= limit]
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
