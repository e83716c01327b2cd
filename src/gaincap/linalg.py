"""Dense linear algebra for desk-scale control computations.

Everything here works on plain numpy arrays that have passed through
:func:`as_matrix` or :func:`as_vector`: real double-precision entries, no
NaN/Inf, marked read-only.  All functions are pure and return fresh arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "rank",
    "controllability_matrix",
    "spectral_radius",
    "induced_inf_norm",
]


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and return a read-only 2-D float64 array."""
    m = np.array(values, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    m.setflags(write=False)
    return m


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Validate and return a read-only 1-D float64 array."""
    v = np.array(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    v.setflags(write=False)
    return v


def _require_square(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape[0]}x{m.shape[1]}")


def rank(m, tol: float = 1e-9) -> int:
    """Numerical rank: the number of singular values above ``tol`` times
    the largest absolute entry."""
    m = as_matrix(m, "matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    singular = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(singular > tol * np.abs(m).max()))


def controllability_matrix(a, b) -> np.ndarray:
    """Stack [B, AB, A^2 B, ..., A^(n-1) B] by repeated block propagation."""
    a = as_matrix(a, "state matrix")
    b = as_matrix(b, "input matrix")
    _require_square(a, "state matrix")
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(
            f"input matrix has {b.shape[0]} rows, state matrix is {n}x{n}"
        )
    blocks = [np.array(b)]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    out = np.hstack(blocks)
    out.setflags(write=False)
    return out


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a square matrix.  Raises
    :class:`OverflowError` when it leaves the floating-point range."""
    m = as_matrix(m, "matrix")
    _require_square(m, "matrix")
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    if radius == np.inf:
        raise OverflowError("the spectral radius left the floating-point range")
    return radius


def induced_inf_norm(m) -> float:
    """Operator norm induced by the max norm: largest absolute row sum.
    Raises :class:`OverflowError` when a row sum of finite entries leaves
    the floating-point range."""
    m = as_matrix(m, "matrix")
    with np.errstate(over="ignore"):
        norm = float(np.max(np.sum(np.abs(m), axis=1)))
    if norm == np.inf:
        raise OverflowError("the induced max-norm left the floating-point range")
    return norm
