import numpy as np
import pytest

from gaincap.lp import (
    OPTIMAL,
    UNBOUNDED,
    Band,
    LpOutcome,
    SimplexBudgetError,
    _simplex,
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
    # the band bound must be a finite epsilon >= 0, so the origin is feasible
    for epsilon in (-1.0, np.nan, np.inf):
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
            band.extend(block)
            band.unbounded(block)
            assert band.rank == equilibrated_rank(s[: band.size])
        basis = band._basis[: band.rank]
        assert np.allclose(basis @ basis.T, np.eye(band.rank), rtol=0.0, atol=1e-12)


def test_band_grown_by_blocks_solves_as_one_stack():
    # a band extended block by block shares one tableau body per stack, and
    # its LPs are bit for bit those over the whole stack at once; a row it
    # finds outside the stack's row space is unbounded
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        epsilon = float(rng.uniform(0.5, 2.0))
        band, blocks = Band(np.zeros((0, n)), epsilon), []
        for _ in range(int(rng.integers(1, 5))):
            blocks.append(rng.standard_normal((int(rng.integers(1, 3)), n)))
            band.extend(blocks[-1])
            rows = rng.standard_normal((3, n))
            for row, outside in zip(rows, band.unbounded(rows)):
                got, whole = band.maximize(row), maximize(row, np.vstack(blocks), epsilon)
                assert (got.status, got.value, got.pivots) == (
                    whole.status, whole.value, whole.pivots
                )
                assert not outside or got.status == UNBOUNDED


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
    # on this cone (all bounds 0, optimum 0 at the origin) the largest
    # reduced cost leads round a cycle of degenerate pivots; Bland's rule
    # takes over after half the budget of 50 * (4 + 7) and stops 3 pivots
    # later
    g = np.vstack(
        [[[-2.0, -9.0, 0.25, 0.25], [1.0, 9.0, 0.25, 1.0], [0.25, -0.5, -3.0, 0.5]], -np.eye(4)]
    )
    out = simplex([-0.5, -9.0, -9.0, 1.0], g, np.zeros(7))
    assert (out.status, out.value, out.pivots) == (OPTIMAL, 0.0, 275 + 3)


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
    assert pivots == 1015


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
