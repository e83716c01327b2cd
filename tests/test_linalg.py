import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from gaincap.linalg import (
    as_count,
    as_matrix,
    as_real,
    as_vector,
    controllability_matrix,
    induced_inf_norm,
    rank,
    spectral_radius,
)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="gains"):
        as_matrix([[1.0, np.nan]], "gains")
    with pytest.raises(ValueError):
        as_matrix([], "empty")
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0], "flat")


def test_as_matrix_is_read_only():
    m = as_matrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        m[0, 0] = 9.0


def test_as_vector():
    v = as_vector([0.3, 0.5], "start")
    assert v.shape == (2,)
    with pytest.raises(ValueError, match="start"):
        as_vector([[0.3], [0.5]], "start")


def test_as_count():
    assert as_count(3, "k", 1, "at least 1") == 3
    assert type(as_count(np.int64(3), "k", 1, "at least 1")) is int
    for bad in (True, np.True_, 3.0, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="k must be an integer"):
            as_count(bad, "k", 1, "at least 1")
    with pytest.raises(ValueError, match="k must be at least 1"):
        as_count(0, "k", 1, "at least 1")
    # numpy can index no size past sys.maxsize; it is the largest count
    assert as_count(sys.maxsize, "k", 1, "at least 1") == sys.maxsize
    for bad in (sys.maxsize + 1, 10**400, np.uint64(2**63)):
        with pytest.raises(ValueError, match=f"^k must be at most {sys.maxsize}$"):
            as_count(bad, "k", 1, "at least 1")


def test_as_real():
    for good in (0.5, 2, np.float64(0.5), np.int64(2), np.float32(0.5), Fraction(1, 2)):
        assert as_real(good, "x") == float(good)
        assert type(as_real(good, "x")) is float
    assert as_real(-1.7e308, "x") == -1.7e308
    # a bool, a string and other non-numbers; NaN and values past the float
    # range, an int past it included, which is compared, not converted
    for bad in (True, np.True_, "1.0", None, [1], 1j, np.array([1.0]), math.nan, math.inf,
                -math.inf, 10**400, -(10**400)):
        with pytest.raises(ValueError, match="^x must be a finite number$"):
            as_real(bad, "x")
    assert as_real(0, "tol", 0.0) == 0.0
    with pytest.raises(ValueError, match="tol must be positive"):
        as_real(0, "tol", 0.0, "positive", exclusive=True)
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        as_real(-1e-300, "tol", 0.0, "nonnegative")


def test_as_matrix_and_as_vector_refuse_non_numbers():
    # numpy would read strings as numbers and raise TypeError or
    # OverflowError on the rest; each is one ValueError naming the argument
    for bad in ([["1", "2"]], [[1.0, "2"]], [[{}, 1.0]], [[None, 1.0]], [[1j, 1.0]],
                [[1.0, 2.0], [3.0]], [["a"]], [[True, False], [False, True]], [[True, 1]],
                [[np.True_, 1.0]], np.eye(2, dtype=bool)):
        with pytest.raises(ValueError, match="^gains must be an array of real numbers$"):
            as_matrix(bad, "gains")
        with pytest.raises(ValueError, match="^start must be an array of real numbers$"):
            as_vector(bad[0] if len(bad) == 1 else [1.0, [2.0]], "start")
    # numpy reads ragged lists as object arrays, but refuses to nest arrays
    # of these shapes at all
    ragged = [np.zeros(2), np.zeros((2, 2))]
    with pytest.raises(ValueError, match="^gains must be an array of real numbers$"):
        as_matrix(ragged, "gains")
    with pytest.raises(ValueError, match="^start must be an array of real numbers$"):
        as_vector(ragged, "start")
    for bad in ([[10**400, 1]], [[-(10**400), 1]]):
        with pytest.raises(ValueError, match="^gains contains non-finite entries$"):
            as_matrix(bad, "gains")
        with pytest.raises(ValueError, match="^start contains non-finite entries$"):
            as_vector(bad[0], "start")
    # ints past int64 but within the float range are numbers
    assert as_matrix([[2**64, -1]]).tolist() == [[2.0**64, -1.0]]
    assert as_vector([Fraction(1, 4), np.float32(0.5), 2]).tolist() == [0.25, 0.5, 2.0]


def test_as_matrix_loose_keeps_kind_and_dimension():
    loose = as_matrix(np.zeros((0, 2)), "rows", strict=False)
    assert loose.shape == (0, 2) and not loose.flags.writeable
    assert np.isnan(as_matrix([[math.nan, 1.0]], "rows", strict=False)[0, 0])
    with pytest.raises(ValueError, match="^rows must be a 2-D array, got shape \\(2,\\)$"):
        as_matrix([1.0, 2.0], "rows", strict=False)
    with pytest.raises(ValueError, match="^rows must be an array of real numbers$"):
        as_matrix([["1", "2"]], "rows", strict=False)


def test_rank_frozen_cases():
    assert rank(np.eye(3)) == 3
    assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert rank(np.array([[-1.5, 2.0], [1.0, -3.0]])) == 2
    assert rank(np.zeros((4, 2))) == 0
    # relative to the largest entry, so numpy's default tolerance would say 2
    assert rank(np.diag([1.0, 1e-12])) == 1


def test_rank_matches_numpy_on_random_products():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows = rng.integers(1, 6)
        cols = rng.integers(1, 6)
        inner = rng.integers(1, 4)
        m = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
        assert rank(m) == np.linalg.matrix_rank(m)


def test_rank_of_transpose():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
        assert rank(m) == rank(m.T)


def test_controllability_matrix_frozen():
    a = np.array([[0.9, 0.0], [0.6, 0.3]])
    b = np.array([[-1.5, 2.0], [1.0, -3.0]])
    got = controllability_matrix(a, b)
    expected = [[-1.5, 2.0, -1.35, 1.8], [1.0, -3.0, -0.6, 0.3]]
    assert got.shape == (2, 4)
    assert np.allclose(got, expected)


def test_spectral_radius_frozen_cases():
    assert spectral_radius(np.array([[0.9, 0.0], [0.2, 0.1]])) == pytest.approx(0.9)
    assert spectral_radius(np.array([[0.5, 0.0], [-1.0, -0.4]])) == pytest.approx(0.5)
    assert spectral_radius(np.array([[1.0, 0.0], [0.5, -0.1]])) == pytest.approx(1.0)
    assert spectral_radius(np.array([[1.0, -1.0], [0.0, -1.0]])) == pytest.approx(1.0)


def test_spectral_radius_matches_numpy_on_triangular():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        m = np.triu(rng.normal(size=(n, n)))
        expected = float(np.max(np.abs(np.diag(m))))
        assert spectral_radius(m) == pytest.approx(expected, abs=1e-6)


def test_spectral_radius_similarity_invariant():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = rng.normal(size=(4, 4))
        t = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        sim = np.linalg.solve(t, m @ t)
        assert spectral_radius(sim) == pytest.approx(spectral_radius(m), abs=1e-6)


def test_induced_inf_norm():
    assert induced_inf_norm(np.array([[1.0, -1.0], [0.0, -1.0]])) == 2.0
    assert induced_inf_norm(np.array([[0.9, 0.0], [0.2, 0.1]])) == pytest.approx(0.9)
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.normal(size=(3, 4))
        x = rng.normal(size=4)
        x /= np.max(np.abs(x))
        assert np.max(np.abs(m @ x)) <= induced_inf_norm(m) + 1e-12


def test_induced_inf_norm_overflow():
    # finite entries, but no finite row sum
    with pytest.raises(OverflowError, match="induced max-norm"):
        induced_inf_norm(np.array([[1e308, -1e308], [0.0, 1.0]]))
    assert induced_inf_norm(np.array([[1e308, 0.0], [0.0, -1e308]])) == 1e308


def test_spectral_radius_overflow():
    # finite entries, but the eigenvalue 2e308 is not
    with pytest.raises(OverflowError, match="spectral radius"):
        spectral_radius(np.array([[1e308, 1e308], [1e308, 1e308]]))
    assert spectral_radius(np.array([[1e308, 0.0], [0.0, -1.7e308]])) == 1.7e308
