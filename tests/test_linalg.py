import numpy as np
import pytest

from gaincap.linalg import (
    as_matrix,
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
