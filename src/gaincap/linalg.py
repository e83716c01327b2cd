"""Dense linear algebra for desk-scale control computations.

:func:`as_matrix` and :func:`as_vector` are the only validators: each
outside input is checked once, where it enters ``gaincap``.  The other
helpers trust their input, float64 arrays with finite entries and the
shapes they name, and check nothing again.  All functions are pure.
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

# rank counts singular values above this fraction of the largest entry
RANK_TOL = 1e-9


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


def rank(m: np.ndarray) -> int:
    """Numerical rank: the number of singular values above ``RANK_TOL`` times
    the largest absolute entry."""
    return int(np.count_nonzero(np.linalg.svd(m, compute_uv=False) > RANK_TOL * np.abs(m).max()))


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack [B, AB, A^2 B, ..., A^(n-1) B] by repeated block propagation."""
    blocks = [b]
    for _ in range(a.shape[0] - 1):
        blocks.append(a @ blocks[-1])
    out = np.hstack(blocks)
    out.setflags(write=False)
    return out


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix.  Raises
    :class:`OverflowError` when it leaves the floating-point range."""
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    if radius == np.inf:
        raise OverflowError("the spectral radius left the floating-point range")
    return radius


def induced_inf_norm(m: np.ndarray) -> float:
    """Operator norm induced by the max norm: largest absolute row sum.
    Raises :class:`OverflowError` when a row sum of finite entries leaves
    the floating-point range."""
    with np.errstate(over="ignore"):
        norm = float(np.add.reduce(np.abs(m), axis=1).max())
    if norm == np.inf:
        raise OverflowError("the induced max-norm left the floating-point range")
    return norm
