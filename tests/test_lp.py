import itertools

import math

import numpy as np
import pytest

from gaincap import ITERATION_LIMIT, CapacitySet, lp, stop_test
from gaincap.lp import (
    EPS,
    OPTIMAL,
    UNBOUNDED,
    Band,
    LpOutcome,
    SimplexBudgetError,
    _simplex,
    equilibrate,
    maximize,
)
from oracles import exact_maximize, polygon_maximize


def simplex(objective, g, h, iteration_budget=None):
    """The simplex core on a general origin-feasible program ``g x <= h``."""
    arrays = (np.array(v, dtype=float) for v in (objective, g, h))
    return _simplex(*arrays, iteration_budget)


BOX_G = [[1, 0], [-1, 0], [0, 1], [0, -1]]
BOX_H = [1, 1, 1, 1]


def test_problem_validation():
    # the band bound must be a finite epsilon >= 0, so the origin is feasible;
    # a string, None, a bool or an int past the float range is no bound
    for epsilon in (-1.0, np.nan, np.inf, "1.0", None, True, 10**400):
        with pytest.raises(ValueError, match="origin is the start vertex"):
            maximize(np.ones(1), np.ones((1, 1)), epsilon)


def test_maximize_solves_the_stacked_band():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        s = rng.integers(-3, 4, size=(int(rng.integers(1, 2 * n + 1)), n)).astype(float)
        c = rng.normal(size=n)
        eps = float(rng.uniform(0.0, 2.0))
        band = maximize(c, s, eps)
        general = simplex(c, np.vstack([s, -s]), np.full(2 * s.shape[0], eps))
        assert (band.status, band.value, band.pivots) == (
            general.status, general.value, general.pivots
        )
        if band.status == OPTIMAL:
            assert band.point.tobytes() == general.point.tobytes()


def test_maximize_takes_integer_and_nested_list_rows():
    # the band takes its rows, and maximize its objective, as float64 once,
    # so an integer array and a nested list give the float array's outcome
    for rows in ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0], [1.0, -3.0]]):
        expected = maximize(np.ones(2), np.array(rows), 1.0)
        for s, c in itertools.product((np.array(rows, dtype=int), rows), ([1, 1], np.ones(2))):
            out = maximize(c, s, 1.0)
            assert (out.status, out.value, out.pivots) == (OPTIMAL, expected.value,
                                                           expected.pivots)
            assert out.point.tobytes() == expected.point.tobytes()


def test_one_scaling_of_the_objective_changes_no_bit():
    # the band's LPs take each objective row scaled once, with its block;
    # value, point and pivots are those of the general simplex, which scales
    # its own objective, on bands with a row of scale 1e-300 and a zero row
    # and on objectives of mixed sign and magnitude
    rng = np.random.default_rng(37)
    for trial in range(120):
        n = int(rng.integers(2, 6))
        s = rng.standard_normal((int(rng.integers(1, 3 * n)), n))
        if trial % 3 == 1:
            s[int(rng.integers(s.shape[0]))] *= 1e-300
        elif trial % 3 == 2:
            s[int(rng.integers(s.shape[0]))] = 0.0
        epsilon = float(rng.uniform(0.1, 2.0))
        objectives = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-150, 150, size=(3, n))
        objectives[0] = 0.0
        band = Band(s, epsilon)
        for c, scaled in zip(objectives, equilibrate(objectives)[0]):
            outcomes = []
            for solve in (
                lambda: band.maximize(c, scaled),
                lambda: _simplex(c, np.vstack([s, -s]), np.full(2 * s.shape[0], epsilon)),
            ):
                try:
                    out = solve()
                except OverflowError as err:
                    outcomes.append(str(err))
                else:
                    point = None if out.point is None else out.point.tobytes()
                    outcomes.append((out.status, out.value, point, out.pivots))
            assert outcomes[0] == outcomes[1]


def test_maximize_refuses_unscalable_band_row():
    # epsilon over the subnormal scale 1e-309 overflows, so the equilibrated
    # bound would be inf; a zero row, whose scale is taken as 1, is fine
    s = np.array([[1.0, 0.0], [0.0, 1e-309], [0.0, 0.0]])
    with pytest.raises(OverflowError, match="floating-point range"):
        maximize(np.array([0.0, 1e-309]), s, 1.0)
    assert maximize(np.array([0.0, 1e-309]), s, 0.0).value == 0.0
    s[1, 1] = 1e-300
    assert maximize(np.array([0.0, 1e-300]), s, 1.0).value == pytest.approx(1.0)


def test_ratio_past_the_float_range_never_blocks():
    # row 0's scaled bound 1e308 over its pivot-column entry 0.01 overflows
    # the ratio test without a warning; the inf ratio never blocks, and
    # row 1's finite one does
    s = np.array([[1e-308, 1e-310], [0.0, 1.0]])
    out = maximize(np.array([0.0, 1.0]), s, 1.0)
    assert (out.status, out.value) == (OPTIMAL, 1.0)


def equilibrated_rank(rows):
    scale = np.abs(rows).max(axis=1, keepdims=True)
    return np.linalg.matrix_rank(rows / np.where(scale == 0.0, 1.0, scale))


def test_band_basis_rank_matches_matrix_rank():
    # the band grows its row space's basis by Gram-Schmidt as blocks join;
    # its rank is numpy's over the equilibrated stack after every block, on
    # stacks with dependent rows, rows 1e-7 apart, zero rows and rows of
    # scale 1e-300, and the basis stays orthonormal
    rng = np.random.default_rng(23)
    for trial in range(200):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(1, 3 * n))
        rank = int(rng.integers(0, n + 1))
        s = rng.standard_normal((r, rank)) @ rng.standard_normal((rank, n))
        pick = int(rng.integers(r))
        if trial % 4 == 1:
            s[pick] = s[0] + 1e-7 * rng.standard_normal(n)
        elif trial % 4 == 2:
            s[pick] = 0.0
        elif trial % 4 == 3:
            s[pick] *= 1e-300
        band = Band(s[:0], 1.0)
        for block in np.array_split(s, int(rng.integers(1, r + 1))):
            scaled, scale = equilibrate(block)
            band.extend(scaled, scale)
            band.unbounded(scaled)
            assert band.rank == equilibrated_rank(s[: band.size])
        basis = band._basis[: band.rank]
        assert np.allclose(basis @ basis.T, np.eye(band.rank), rtol=0.0, atol=1e-12)


def test_band_grown_by_blocks_solves_as_one_stack():
    # a band extended block by block shares one tableau body per stack, and
    # its LPs are bit for bit those over the whole stack at once; a row it
    # finds outside the stack's row space is unbounded.  A square band of n
    # rows at rank n answers in closed form, with 0 pivots, within 1e-12 of
    # the whole stack's simplex
    rng = np.random.default_rng(19)
    squares = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        epsilon = float(rng.uniform(0.5, 2.0))
        band, blocks = Band(np.zeros((0, n)), epsilon), []
        for _ in range(int(rng.integers(1, 5))):
            blocks.append(rng.standard_normal((int(rng.integers(1, 3)), n)))
            band.extend(*equilibrate(blocks[-1]))
            rows = rng.standard_normal((3, n))
            scaled = equilibrate(rows)[0]
            for row, row_s, outside in zip(rows, scaled, band.unbounded(scaled)):
                got, whole = band.maximize(row, row_s), maximize(row, np.vstack(blocks), epsilon)
                if band.size == band.rank == n:
                    squares += 1
                    assert (got.status, got.pivots) == (OPTIMAL, 0)
                    assert got.value == pytest.approx(whole.value, rel=1e-12, abs=0.0)
                else:
                    assert (got.status, got.value, got.pivots) == (
                        whole.status, whole.value, whole.pivots
                    )
                assert not outside or got.status == UNBOUNDED
    assert squares > 0


def test_rows_joining_mid_block_restart_its_lps():
    # a block's LPs share one tableau; rows that join the band while the
    # block is being answered make its next LP start at the origin of the
    # grown band, so every maximum is that of the whole stack
    rng = np.random.default_rng(3)
    for _ in range(20):
        s, block, extra = (rng.standard_normal((k, 3)) for k in (6, 3, 2))
        band = Band(s, 1.0)
        maxima = band.maxima(block)
        next(maxima)
        band.extend(*equilibrate(5.0 * extra))
        for value, row in zip(maxima, block[1:]):
            whole = maximize(row, np.vstack([s, 5.0 * extra]), 1.0)
            assert value == pytest.approx(whole.value, rel=1e-9, abs=0.0)


def test_maximum_past_the_float_range_raises():
    # max 1e300 x_1 over |x_1| <= 1e10 is 1e310; numpy's overflow warning (an
    # error under pytest's filterwarnings) must not escape, and a maximum
    # just inside the range is still returned as c @ x
    s = np.array([[1.0, 0.0]])
    with pytest.raises(OverflowError, match="maximum left the floating-point range"):
        maximize(np.array([1e300, 0.0]), s, 1e10)
    with pytest.raises(OverflowError, match="maximum left the floating-point range"):
        simplex([1e300, 1e300], BOX_G, [1e8, 1e8, 1e8, 1e8])
    assert maximize(np.array([1e300, 0.0]), s, 1e8).value == 1e308
    out = simplex([1e300, 1e300], BOX_G, [1e7, 1e7, 1e7, 1e7])
    assert out.value == float(np.array([1e300, 1e300]) @ out.point) == pytest.approx(2e307)


def test_box_maximum():
    out = simplex([1.0, 0.0], BOX_G, BOX_H)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-12)
    assert out.point[0] == pytest.approx(1.0, abs=1e-12)


def test_diagonal_objective_on_box():
    out = simplex([1.0, 1.0], BOX_G, BOX_H)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-12)


def test_unbounded():
    out = simplex([1.0, 0.0], [[0, 1]], [1.0])
    assert out.status == UNBOUNDED
    assert out.point is None and out.value is None
    assert out.pivots == 0
    # x1 enters first (largest reduced cost) and reaches its bound; then x0
    # has no bound
    assert simplex([0.5, 1.0], [[0, 1]], [1.0]) == LpOutcome(UNBOUNDED, pivots=1)


def test_capacity_style_value():
    # one step of the running two-state example: maximize the next output row
    # over the band |y| <= 0.4 held for two steps; the answer is exactly
    # 22.8/190
    c_row = np.array([-1.0, 1.0])
    a_tilde = np.array([[0.5, 0.0], [-1.0, -0.4]])
    r1 = c_row @ a_tilde
    g = np.vstack([c_row, -c_row, r1, -r1])
    h = np.full(4, 0.4)
    out = simplex(r1 @ a_tilde, g, h)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.12, abs=1e-9)


def test_budget_error():
    # the optimum of [1, 1] on the box takes exactly two pivots
    corner = ([1.0, 1.0], BOX_G, BOX_H)
    for budget in (-1, 0, 1):
        with pytest.raises(SimplexBudgetError, match=f"pivot budget of {budget} exhausted"):
            simplex(*corner, iteration_budget=budget)
    assert simplex(*corner, iteration_budget=2).value == 2.0
    assert simplex(*corner).pivots == 2


# Beale's (1955) and Chvatal's (1983) examples, on which the largest-
# coefficient entering rule cycles in standard form; x >= 0 is written as
# explicit rows -x <= 0, which makes the origin a highly degenerate vertex
CYCLING = [
    (
        [0.75, -150.0, 0.02, -6.0],
        [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        0.05,
    ),
    (
        [10.0, -57.0, -9.0, -24.0],
        [[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]],
        1.0,
    ),
]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("objective, rows, optimum", CYCLING)
def test_cycling_examples(objective, rows, optimum, reverse):
    g = np.vstack([rows, -np.eye(4)])
    h = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    if reverse:
        g, h = g[::-1], h[::-1]
    out = simplex(objective, g, h)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(optimum, abs=1e-12)
    # a small budget hands the rest of the path to Bland's rule part way:
    # the answer is the optimum or a budget error, never a wrong vertex
    for budget in range(6, 30):
        try:
            assert simplex(objective, g, h, budget).value == pytest.approx(optimum)
        except SimplexBudgetError:
            pass


def test_dantzig_cycle_falls_back_to_bland():
    # on this cone (all bounds 0, optimum 0 at the origin, x >= 0 written
    # as -I rows) the largest reduced cost leads round a cycle of
    # degenerate pivots among the slacks, as a basic x never leaves; Bland's
    # rule takes over after half the budget of 50 * (4 + 7) and stops 4
    # pivots later
    g = np.vstack(
        [-np.eye(4), [[60.0, -0.02, -90.0, -0.25], [2.0, 60.0, -150.0, -6.0], [2.0, 6.0, 90.0, -90.0]]]
    )
    out = simplex([3.0, 0.02, -60.0, -0.04], g, np.zeros(7))
    assert (out.status, out.value, out.pivots) == (OPTIMAL, 0.0, 275 + 4)


@pytest.mark.parametrize("objective, rows, bounds, pivots", [
    # an inf ratio, on which every row ties
    ([1.0], [[-1e-300], [2e-300]], [0.0, 2e300], None),
    # an inf ratio, then a NaN one, on which no row ties and row 0 is taken
    ([-3.0], [[1e-300], [-2e-200]], [1e308, 1e300], None),
    # an inf ratio, then a NaN reduced cost as the argmax while another
    # reduced cost still improves
    ([-1.0], [[0.0], [-3e-200]], [0.0, 2e300], 1),
])
def test_non_finite_tableau_keeps_full_scan_decisions(objective, rows, bounds, pivots):
    # equilibration divides a bound near the top of the float range by a
    # tiny row scale, so the tableau holds inf, and pivots on it make NaN;
    # the pivot rules must still decide as scans over every row and every
    # column would: None stands for an exhausted budget
    with np.errstate(all="ignore"):
        if pivots is None:
            with pytest.raises(SimplexBudgetError, match="budget of 150 exhausted"):
                simplex(objective, rows, bounds)
        else:
            assert simplex(objective, rows, bounds) == LpOutcome(UNBOUNDED, pivots=pivots)


def random_lps(seed, count):
    """Gaussian, degenerate integer and symmetric band ``[S; -S]`` LPs in
    turn, with 3 to 6 variables."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(3, 7))
        if i % 3 == 0:
            g = rng.normal(size=(int(rng.integers(n, 3 * n)), n))
            h = np.abs(rng.normal(size=g.shape[0]))
            c = rng.normal(size=n)
        elif i % 3 == 1:
            g = rng.integers(-2, 3, size=(int(rng.integers(n, 3 * n)), n)).astype(float)
            h = rng.integers(0, 3, size=g.shape[0]).astype(float)
            c = rng.integers(-2, 3, size=n).astype(float)
        else:
            band = rng.integers(-3, 4, size=(int(rng.integers(2, 2 * n)), n)).astype(float)
            g = np.vstack([band, -band])
            h = np.ones(g.shape[0])
            c = rng.integers(-3, 4, size=n).astype(float)
        yield c, g, h


def test_matches_exact_oracle():
    statuses, pivots = [], 0
    for c, g, h in random_lps(6, 210):
        out = simplex(c, g, h)
        status, value = exact_maximize(c, g, h)
        assert out.status == status
        statuses.append(status)
        pivots += out.pivots
        if status == OPTIMAL:
            assert out.value == pytest.approx(float(value), rel=1e-9, abs=1e-9)
    assert (statuses.count(OPTIMAL), statuses.count(UNBOUNDED)) == (114, 96)
    # pins the pricing, the ratio test and its tie-break: any change to
    # one of them moves the pivot path of some of these LPs
    assert pivots == 884


def test_a_basic_structural_never_leaves(monkeypatch):
    # max 3 x0 - 3 x1 over -x1 <= 1, 3 x0 - 2 x1 <= 1 (x sign-free): x0+
    # enters first, and a ratio test over every row would move it out again
    # on the next pivot; a basic structural is free, so only slacks (labels
    # 4 and 5) leave
    basis, nonbasic, leaving = [4, 5], [0, 1, 2, 3], []

    def tracking_pivot(tab, row, col):
        leaving.append(basis[row])
        basis[row], nonbasic[col] = nonbasic[col], basis[row]
        original(tab, row, col)

    original = lp._pivot
    monkeypatch.setattr(lp, "_pivot", tracking_pivot)
    out = simplex([3.0, -3.0], [[0.0, -1.0], [3.0, -2.0]], [1.0, 1.0])
    assert leaving == [5, 4]
    assert (out.status, out.value, out.pivots) == (OPTIMAL, 2.0, 2)
    assert sorted(basis) == [0, 3]


def test_block_lps_start_from_the_previous_vertex(monkeypatch):
    # each LP of a block after its first starts from the vertex the one
    # before it left, or, when its objective is negative there, maximizes
    # the negated objective from it and negates the point; every maximum is
    # the cold primal's within 1e-9 on random bands, with blocks of 2-4
    # rows that hold a row nearly the negation of the one before it, or, on
    # a cylinder, an unbounded row between two solved ones
    mirrored = []

    def counting_reprice(*args):
        mirrored.append(original(*args))
        return mirrored[-1]

    original = lp._reprice
    monkeypatch.setattr(lp, "_reprice", counting_reprice)
    rng = np.random.default_rng(29)
    unbounded = 0
    for trial in range(160):
        n = int(rng.integers(2, 6))
        s = rng.standard_normal((int(rng.integers(n, 3 * n)), n))
        block = rng.standard_normal((int(rng.integers(2 + trial % 2, 5)), n))
        if trial % 2 == 0:
            j = int(rng.integers(1, block.shape[0]))
            block[j] = -block[j - 1] + 1e-3 * rng.standard_normal(n)
        else:  # along the last axis; row 1 lies outside the row space, or
            # has a part outside it small enough to be left to the simplex
            s[:, -1] = block[:, -1] = 0.0
            block[1, -1] = 1.0 if trial % 4 == 1 else 1e-8
        epsilon = float(rng.uniform(0.5, 2.0))
        for value, row in zip(Band(s, epsilon).maxima(block), block):
            cold = maximize(row, s, epsilon)
            if cold.status == UNBOUNDED:
                assert value == math.inf
                unbounded += 1
            else:
                assert value == pytest.approx(cold.value, rel=1e-9, abs=0.0)
    assert unbounded == 80
    assert mirrored.count(True) > 40 and mirrored.count(False) > 40


def test_returned_point_is_feasible():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        g = rng.normal(size=(int(rng.integers(1, 10)), n))
        h = np.abs(rng.normal(size=g.shape[0]))
        c = rng.normal(size=n)
        out = simplex(c, g, h)
        if out.status == OPTIMAL:
            assert np.all(g @ out.point <= h + 1e-7)
            assert out.value == pytest.approx(float(c @ out.point), abs=1e-12)


def test_origin_feasible_never_infeasible():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g = rng.normal(size=(int(rng.integers(1, 8)), 3))
        out = simplex(rng.normal(size=3), g, np.full(g.shape[0], 1.0))
        assert out.status in (OPTIMAL, UNBOUNDED)
        if out.status == OPTIMAL:
            assert out.value >= -1e-9


def test_matches_polygon_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        g = rng.normal(size=(int(rng.integers(1, 9)), 2))
        h = rng.uniform(0.1, 3.0, size=g.shape[0])
        c = rng.normal(size=2)
        out = simplex(c, g, h)
        status, value = polygon_maximize(c, g, h)
        assert out.status == status
        if status == OPTIMAL:
            assert out.value == pytest.approx(value, abs=1e-7)


def test_row_scaling_invariance():
    g = np.array([[1.0, 1.0], [-1.0, 2.0], [0.5, -1.0]])
    h = np.array([2.0, 3.0, 1.0])
    c = np.array([1.0, 0.3])
    base = simplex(c, g, h)
    scale = np.array([1e8, 1e-8, 1.0])
    scaled = simplex(c, g * scale[:, None], h * scale)
    assert base.status == scaled.status == OPTIMAL
    assert scaled.value == pytest.approx(base.value, rel=1e-9)
    boosted = simplex(c * 1e6, g, h)
    assert boosted.value == pytest.approx(base.value * 1e6, rel=1e-9)


def test_survives_wide_coefficient_range():
    # stacked powers of a matrix with an eigenvalue of 2 produce rows whose
    # magnitudes span eighteen orders; equilibration keeps the pivots sane
    c_rows = np.array([[-0.1, -0.1, 1.0, 0.0, -0.5], [-0.1, -1.0, 0.0, 0.0, 1.0]])
    a = np.array(
        [
            [-1.0, 0.0, 0.0, 0.0, 0.0],
            [-1.0, -1.0, 0.0, 0.0, 0.0],
            [-1.0, -0.4, 0.3, 0.0, 0.0],
            [-1.0, -0.4, 0.3, 1.0, 0.0],
            [-1.0, -0.4, 0.3, 0.0, 2.0],
        ]
    )
    block = c_rows
    rows = [block]
    for _ in range(60):
        block = block @ a
        rows.append(block)
    stacked = np.vstack(rows)
    g = np.vstack([stacked, -stacked])
    out = simplex((block @ a)[0], g, np.full(g.shape[0], 0.9))
    assert out.status == OPTIMAL
    assert out.value > 0.9  # the unstable mode keeps the band violated


def square_outcomes(s, epsilon, rows):
    """The outcomes of ``rows`` over the band of the n x n rows ``s``, whose
    rank the band finds first, as :meth:`Band.maxima` does before its LPs."""
    band = Band(s, epsilon)
    scaled = equilibrate(rows)[0]
    assert not any(band.unbounded(scaled))
    assert band.size == band.rank == s.shape[1]
    return [band.maximize(row, row_s) for row, row_s in zip(rows, scaled)]


def test_square_band_answers_in_closed_form():
    # n rows at rank n bound a parallelepiped, whose maximum is the vertex
    # x = G^-1 z, z = h with the signs of c G^-1, found with 0 pivots:
    # within 1e-12 of the exact maximum and of the simplex over [S; -S],
    # valued as c . x, on random square bands of n 1 to 6 with row scales
    # from 1e-3 to 1e3
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        for _ in range(20):
            s = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
            epsilon = float(rng.uniform(0.1, 2.0))
            rows = rng.standard_normal((3, n))
            g, h = np.vstack([s, -s]), np.full(2 * n, epsilon)
            for row, out in zip(rows, square_outcomes(s, epsilon, rows)):
                assert (out.status, out.pivots) == (OPTIMAL, 0)
                exact = float(exact_maximize(row, g, h)[1])
                assert out.value == pytest.approx(exact, rel=1e-12, abs=0.0)
                assert out.value == pytest.approx(_simplex(row, g, h).value, rel=1e-12, abs=0.0)
                assert out.value == row @ out.point and not out.point.flags.writeable
                assert np.abs(s @ out.point).max() <= epsilon * (1.0 + 1e-9)


def test_square_band_objective_along_a_band_row():
    # an objective along band row j has c G^-1 zero but for entry j, and
    # either sign of each zero entry gives a vertex on face j; its maximum
    # is |k| epsilon
    rng = np.random.default_rng(43)
    for n in range(1, 7):
        s = rng.standard_normal((n, n))
        epsilon = float(rng.uniform(0.1, 2.0))
        rows = np.vstack([k * s for k in (2.0, -0.5)])
        for k, out in zip(np.repeat([2.0, -0.5], n), square_outcomes(s, epsilon, rows)):
            assert (out.status, out.pivots) == (OPTIMAL, 0)
            assert out.value == pytest.approx(abs(k) * epsilon, rel=1e-12, abs=0.0)


def test_square_band_of_nearly_dependent_rows():
    # rows 1e-7 and 1e-11 apart still count as rank n, so the closed form
    # answers them; its maximum is within cond(G) * EPS of the exact one,
    # the accuracy a backward-stable solve over G promises
    rng = np.random.default_rng(53)
    for delta in (1e-7, 1e-11):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = rng.standard_normal((n, n))
            s[1] = s[0] + delta * rng.standard_normal(n)
            epsilon = float(rng.uniform(0.5, 2.0))
            rows = rng.standard_normal((2, n))
            bound = np.linalg.cond(equilibrate(s)[0]) * EPS
            g, h = np.vstack([s, -s]), np.full(2 * n, epsilon)
            for row, out in zip(rows, square_outcomes(s, epsilon, rows)):
                assert (out.status, out.pivots) == (OPTIMAL, 0)
                exact = float(exact_maximize(row, g, h)[1])
                assert out.value == pytest.approx(exact, rel=bound, abs=0.0)


def test_square_band_grown_past_n_rows_returns_to_the_simplex():
    # once a row joins a square band the closed form no longer holds: each
    # LP goes back to the simplex, bit for bit that over the whole stack
    rng = np.random.default_rng(59)
    pivots = 0
    for _ in range(30):
        n = int(rng.integers(1, 6))
        s, extra, rows = (rng.standard_normal((k, n)) for k in (n, 1, 3))
        epsilon = float(rng.uniform(0.5, 2.0))
        band = Band(s, epsilon)
        scaled = equilibrate(rows)[0]
        band.unbounded(scaled)
        assert all(band.maximize(row, row_s).pivots == 0 for row, row_s in zip(rows, scaled))
        band.extend(*equilibrate(extra))
        for row, row_s in zip(rows, scaled):
            got, whole = band.maximize(row, row_s), maximize(row, np.vstack([s, extra]), epsilon)
            assert (got.status, got.value, got.pivots) == (whole.status, whole.value, whole.pivots)
            pivots += got.pivots
    assert pivots > 0


def test_square_band_maximum_past_the_float_range_raises():
    # max 1e300 x_1 over the square |x_1|, |x_2| <= 1e10 is 1e310, and over
    # rows 1e-9 apart with epsilon 1e300 the vertex itself leaves the range:
    # each raises without a numpy warning (an error under pytest's
    # filterwarnings), and a maximum just inside the range is returned
    cases = ((np.eye(2), 1e10, [1e300, 0.0]), (np.array([[1.0, 0.0], [1.0, 1e-9]]), 1e300, [0, 1]))
    for s, epsilon, c in cases:
        band = Band(s, epsilon)
        with pytest.raises(OverflowError, match="maximum left the floating-point range"):
            list(band.maxima(np.array([c], dtype=float)))
        assert band.size == band.rank == 2
    assert list(Band(np.eye(2), 1e10).maxima(np.array([[1e298, 0.0]]))) == [1e308]


def test_stop_test_over_n_stored_rows(monkeypatch):
    # a set of exactly n stored rows at rank n makes a square band, so
    # stop_test runs no simplex; each maximum is within 1e-12 of the exact
    # one over the stored rows, and the test stops exactly when all are
    # within epsilon * (1 + stop_tol)
    def refuse(*args, **kwargs):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(lp, "_solve", refuse)
    rng = np.random.default_rng(61)
    seen = set()
    for n, p in ((1, 1), (2, 1), (4, 2), (6, 3), (6, 2), (5, 5)):
        for _ in range(4):
            a = rng.standard_normal((n, n))
            a *= float(rng.uniform(0.5, 1.2)) / np.abs(np.linalg.eigvals(a)).max()
            blocks = [rng.standard_normal((p, n))]
            while len(blocks) < n // p:
                blocks.append(blocks[-1] @ a)
            rows, epsilon = np.vstack(blocks), float(rng.uniform(0.5, 2.0))
            cap = CapacitySet(a, rows, epsilon, p, None, ITERATION_LIMIT, ())
            g, h = np.vstack([rows, -rows]), np.full(2 * n, epsilon)
            for step in (n // p, n // p + 2):
                stopped, values = stop_test(cap, step)
                objective = rows[:p]
                for _ in range(step):
                    objective = objective @ a
                exact = [float(exact_maximize(row, g, h)[1]) for row in objective]
                assert values[::2] == values[1::2] == pytest.approx(exact, rel=1e-12, abs=0.0)
                assert stopped == all(v <= epsilon * (1.0 + 1e-9) for v in values)
                seen.add(stopped)
    assert seen == {True, False}
