"""Dense linear algebra for desk-scale control computations.

Four checkers hold every argument rule of ``gaincap``: :func:`as_count`
for a count, :func:`as_real` for a real number in a range, and
:func:`as_matrix` and :func:`as_vector` for arrays of finite reals.  Each
outside input is checked once, where it enters, and no other module checks
a count or a number itself; each refusal is a :class:`ValueError`.  The
other helpers trust their input, float64 arrays with finite entries and the
shapes they name, and check nothing again.  All functions are pure.
"""

from __future__ import annotations

import numbers
import operator
import sys

import numpy as np

__all__ = [
    "as_count",
    "as_real",
    "as_matrix",
    "as_vector",
    "rank",
    "controllability_matrix",
    "spectral_radius",
    "induced_inf_norm",
]

# rank counts singular values above this fraction of the largest entry
RANK_TOL = 1e-9
FLOAT_MAX = sys.float_info.max


def as_count(value, name: str, least: int, bound: str) -> int:
    """A count argument as an int.  numpy integers pass; a bool or a float,
    even 2.0, raises :class:`ValueError`, and so does a count below
    ``least``, as "``name`` must be ``bound``"."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if value < least:
        raise ValueError(f"{name} must be {bound}")
    return value


def as_real(
    value, name: str, least: float = -FLOAT_MAX, bound: str = "a finite number", *,
    exclusive: bool = False,
) -> float:
    """A real-number argument as a float in ``[least, FLOAT_MAX]``, or in
    ``(least, FLOAT_MAX]`` when ``exclusive``.  numpy numbers pass; a bool,
    a string or any other non-number raises :class:`ValueError`, and so
    does a value out of range or NaN, as "``name`` must be ``bound``".  The
    range is compared before the value is converted, so an int past the
    float range is refused rather than overflowing."""
    if isinstance(value, np.generic):  # so that a float32 compares without a cast
        value = value.item()
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (least < value if exclusive else least <= value)
        or not value <= FLOAT_MAX
    ):
        raise ValueError(f"{name} must be {bound}")
    return float(value)


def _array(values, name: str, ndim: int, strict: bool) -> np.ndarray:
    """``values`` as a new read-only float64 array of ``ndim`` dimensions,
    nonempty and finite when ``strict``.  Raises :class:`ValueError` for an
    entry that is no real number (a string, a dict, None, a complex value),
    for ragged nesting and for an int past the float range."""
    try:
        a = np.array(values)
        kind = a.dtype.kind
        real = kind in "biuf" or kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat)
    except (TypeError, ValueError):  # ragged nesting
        real = False
    if not real:
        raise ValueError(f"{name} must be an array of real numbers")
    try:
        a = a.astype(float, copy=False)
    except OverflowError:  # Python ints past int64 arrive as objects
        raise ValueError(f"{name} contains non-finite entries") from None
    if a.ndim != ndim or (strict and a.size == 0):
        shape = f"a nonempty {ndim}-D array" if strict else f"a {ndim}-D array"
        raise ValueError(f"{name} must be {shape}, got shape {a.shape}")
    if strict and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    a.setflags(write=False)
    return a


def as_matrix(values, name: str = "matrix", *, strict: bool = True) -> np.ndarray:
    """Validate and return a read-only 2-D float64 array, nonempty and
    finite.  ``strict=False`` keeps only the rules of kind and dimension:
    the matrix may have no entries, or inf and NaN ones."""
    return _array(values, name, 2, strict)


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Validate and return a read-only nonempty 1-D float64 array of finite reals."""
    return _array(values, name, 1, True)


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
