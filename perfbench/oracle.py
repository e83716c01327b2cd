"""Verdict oracle that never solves an LP.

Admissibility of a start x means every output ``C a^k x`` stays within
``epsilon`` for all k >= 0.  The oracle rolls the start out with plain
numpy until the rest of the history provably stays inside the band, and
classifies it as IN, OUT or TIE (within a relative 1e-9 of ``epsilon``,
where either verdict is accepted).

For a loop with spectral radius below one it bounds ``sup_j |a^j|_2`` by
``K = max_{j<m} |a^j|_2`` for the first m with ``|a^m|_2 <= 1/2``; once
``|C|_2 K |x_k|`` is below the band no later output can leave it.  Loops
with eigenvalues on the unit circle (fixtures ex3-ex5, ex7, ex8, ex10) are
rolled out over a fixed horizon instead: their other modes have modulus at
most 0.9, so after MARGINAL_STEPS the transient is below 1e-90 and the
outputs repeat.
"""

import numpy as np

REL_TOL = 1e-9
MARGINAL_STEPS = 2000
MAX_STEPS = 200_000
IN, TIE, OUT = 1, 0, -1


def _power_bound(a):
    """Upper bound on ``|a^j|_2`` over all j >= 0 for a stable ``a``."""
    bound = 1.0
    power = np.eye(a.shape[0])
    for _ in range(MAX_STEPS):
        power = a @ power
        norm = np.linalg.norm(power, 2)
        if norm <= 0.5:
            return bound
        bound = max(bound, norm)
    raise RuntimeError("oracle: loop contracts too slowly to bound its powers")


def classify(a, c, starts, epsilon):
    """Classify each column of ``starts`` (n x q) as IN, TIE or OUT."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    x = np.array(starts, dtype=float, ndmin=2)
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    stable = radius < 1.0 - 1e-12
    steps = MAX_STEPS if stable else MARGINAL_STEPS
    tail_scale = np.linalg.norm(c, 2) * _power_bound(a) if stable else 0.0
    inside = epsilon * (1.0 - REL_TOL)
    peak = np.zeros(x.shape[1])
    for _ in range(steps):
        peak = np.maximum(peak, np.max(np.abs(c @ x), axis=0))
        if stable and tail_scale * np.max(np.linalg.norm(x, axis=0)) < inside:
            break
        x = a @ x
    else:
        if stable:
            raise RuntimeError("oracle: rollout did not settle")
    classes = np.full(peak.shape, TIE)
    classes[peak <= inside] = IN
    classes[peak > epsilon * (1.0 + REL_TOL)] = OUT
    return classes


def agrees(cls, member):
    """Whether a program's membership verdict matches an oracle class."""
    return cls == TIE or (cls == IN) == bool(member)


def boundary_mismatches(a, c, rows, epsilon, directions):
    """Scale each direction to 0.999x and 1.001x of the band polyhedron
    ``|rows x| <= epsilon``; the inner point must stay in the band forever
    and the outer one must leave it.  Returns the number that do not."""
    d = np.asarray(directions, dtype=float)
    reach = np.max(np.abs(np.asarray(rows) @ d), axis=0)
    d = d[:, reach > 0] * (epsilon / reach[reach > 0])
    inner = classify(a, c, 0.999 * d, epsilon)
    outer = classify(a, c, 1.001 * d, epsilon)
    return int(np.sum(inner == OUT) + np.sum(outer == IN))


def rank_class(m, tol=1e-9):
    """True when ``m`` clearly has full column rank, False when it clearly
    lacks it, None when its smallest singular value (relative to the
    largest) is too close to the program's elimination tolerance to say."""
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    n = np.asarray(m).shape[1]
    if s.size < n:
        return False
    ratio = s[n - 1] / s[0] if s[0] > 0 else 0.0
    if ratio > 1e3 * tol:
        return True
    if ratio < 1e-3 * tol:
        return False
    return None


def controllability(a, b):
    """[B, AB, ..., A^(n-1) B], transposed so that full rank is column rank."""
    blocks = [np.asarray(b, dtype=float)]
    for _ in range(a.shape[0] - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks).T


def observability(a, c):
    """[C; CA; ...; CA^(n-1)]."""
    blocks = [np.asarray(c, dtype=float)]
    for _ in range(a.shape[0] - 1):
        blocks.append(blocks[-1] @ a)
    return np.vstack(blocks)


def spectral_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def close(value, reference, rel=1e-6):
    return abs(value - reference) <= rel * max(1.0, abs(reference))
