"""Independent slow-path oracles used only by the test suite.

None of them imports ``gaincap``: they re-derive what the library computes
by other means, so an agreement between the two is evidence for both.

The polygon oracle solves 2-D linear programs by brute force: enumerate every
pair-intersection vertex of the constraint set, keep the feasible ones, and
take the best objective value.  Unboundedness is detected first by scanning a
finite set of candidate recession directions (the objective itself, the axes,
and every constraint row rotated onto its own boundary).  Callers must pass a
feasible problem; the capacity-set programs always contain the origin.

The exact oracles repeat the determination loop in rational arithmetic
(``fractions.Fraction``), with a simplex of their own and no tolerance at
all, so a maximum that equals epsilon is a tie and not a rounding accident.
Every entry is converted with ``Fraction(x)``: pass Fractions (or decimal
strings) to mean decimals exactly, since a float ``0.1`` is not ``1/10``.
"""

from fractions import Fraction

import numpy as np

_TOL = 1e-9


def _rot90(v):
    return np.array([-v[1], v[0]])


def polygon_maximize(objective, g, h):
    """Maximize ``objective . x`` over ``{x : g x <= h}`` in the plane.

    Returns ``("unbounded", None)`` or ``("optimal", value)``.  The feasible
    set must be nonempty and two-dimensional.
    """
    c = np.asarray(objective, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    assert g.shape[1] == 2 and c.shape == (2,)

    directions = [c, -c, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    for row in g:
        directions += [row, -row, _rot90(row), -_rot90(row)]
    for d in directions:
        scale = np.max(np.abs(d))
        if scale < _TOL:
            continue
        d = d / scale
        if np.all(g @ d <= _TOL) and c @ d > _TOL:
            return "unbounded", None

    feas_slack = 1e-7 * np.maximum(1.0, np.abs(h))
    best = None
    candidates = []
    rows = g.shape[0]
    for i in range(rows):
        for j in range(i + 1, rows):
            m = np.array([g[i], g[j]])
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if abs(det) < 1e-12 * max(1.0, np.max(np.abs(m)) ** 2):
                continue
            candidates.append(np.linalg.solve(m, [h[i], h[j]]))
    # faces parallel to the objective carry their optimum away from any
    # vertex; the boundary point closest to the origin still lies on them
    for i in range(rows):
        norm2 = g[i] @ g[i]
        if norm2 > _TOL:
            candidates.append(g[i] * (h[i] / norm2))
    for v in candidates:
        if np.all(g @ v <= h + feas_slack):
            val = float(c @ v)
            if best is None or val > best:
                best = val
    assert best is not None, "oracle found no feasible candidate point"
    return "optimal", best


def exact_maximize(objective, g, h):
    """Maximize ``objective . x`` over ``{x : g x <= h}`` exactly.

    A primal simplex with Bland's rule over Fractions, any dimension.  The
    bounds ``h`` must be nonnegative, so the origin is the starting vertex.
    Returns ``("unbounded", None)`` or ``("optimal", value)`` with the value
    a Fraction.
    """
    c = [Fraction(v) for v in objective]
    n = len(c)
    rows = [[Fraction(v) for v in row] for row in g]
    rhs = [Fraction(v) for v in h]
    m = len(rows)
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise ValueError("objective, g and h do not fit together")
    if any(b < 0 for b in rhs):
        raise ValueError("h must be nonnegative so that the origin is feasible")
    # columns: x+ (n), x- (n), one slack per row (m), then the right-hand side
    width = 2 * n + m
    tableau = [
        row + [-v for v in row] + [Fraction(int(i == j)) for j in range(m)] + [b]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    # reduced costs; the last entry is minus the objective value
    cost = c + [-v for v in c] + [Fraction(0)] * (m + 1)
    basis = list(range(2 * n, width))
    while True:
        entering = next((j for j in range(width) if cost[j] > 0), None)
        if entering is None:
            return "optimal", -cost[-1]
        ratios = [
            (tableau[i][-1] / tableau[i][entering], basis[i], i)
            for i in range(m)
            if tableau[i][entering] > 0
        ]
        if not ratios:
            return "unbounded", None
        _, _, r = min(ratios)
        pivot_row = tableau[r]
        pivot = pivot_row[entering]
        pivot_row[:] = [v / pivot for v in pivot_row]
        support = [j for j, v in enumerate(pivot_row) if v]
        for row in tableau + [cost]:
            factor = row[entering]
            if row is not pivot_row and factor:
                for j in support:
                    row[j] -= factor * pivot_row[j]
        basis[r] = entering


def _exact_matrix(values):
    return [[Fraction(v) for v in row] for row in values]


def _exact_product(left, right):
    return [
        [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
        for row in left
    ]


def exact_step_maxima(c, a_tilde, epsilon, k):
    """Exact LP maxima of every signed output row at step ``k + 1`` over the
    step-``k`` truncation ``Theta_k``, in the order +row 1, -row 1, +row 2,
    ...; an unbounded program gives None."""
    eps = Fraction(epsilon)
    at = _exact_matrix(a_tilde)
    blocks = [_exact_matrix(c)]
    for _ in range(k + 1):
        blocks.append(_exact_product(blocks[-1], at))
    stack = [row for block in blocks[:-1] for row in block]
    g = stack + [[-v for v in row] for row in stack]
    h = [eps] * len(g)
    values = []
    for row in blocks[-1]:
        for sign in (1, -1):
            _, value = exact_maximize([sign * v for v in row], g, h)
            values.append(value)
    return values


def exact_determination_index(c, a_tilde, epsilon, limit, *, strict=False):
    """First step k < ``limit`` at which every signed maximum of
    :func:`exact_step_maxima` is at most ``epsilon`` (below it when
    ``strict``), or None when there is none."""
    eps = Fraction(epsilon)
    for k in range(limit):
        values = exact_step_maxima(c, a_tilde, eps, k)
        if all(v is not None and (v < eps if strict else v <= eps) for v in values):
            return k
    return None


def _exact_null_space(m):
    """Basis of ``{v : m v = 0}`` by Gauss-Jordan elimination over Fractions."""
    m = [list(row) for row in m]
    cols = len(m[0])
    pivots = []
    for col in range(cols):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in (j for j in range(cols) if j not in pivots):
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][free]
        basis.append(v)
    return basis


def growing_mode(c, a_tilde):
    """Exact certificate that the output rows ``c a_tilde**k`` are unbounded.

    Looks for a rational eigenpair ``a_tilde v = lam v`` with ``|lam| > 1``
    and ``c v != 0``: then ``c a_tilde**k v = lam**k (c v)`` grows without
    bound.  Candidate eigenvalues come from numpy, but the returned pair is
    checked in exact arithmetic.  Returns ``(lam, v)`` or None.
    """
    at = _exact_matrix(a_tilde)
    cm = _exact_matrix(c)
    n = len(at)
    candidates = {
        Fraction(float(lam.real)).limit_denominator(10**6)
        for lam in np.linalg.eigvals(np.array(at, dtype=float))
        if abs(lam.imag) < 1e-9 and abs(lam.real) > 1
    }
    for lam in sorted(candidates):
        shifted = [[at[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        for v in _exact_null_space(shifted):
            image = _exact_product(at, [[x] for x in v])
            if all(image[i][0] == lam * v[i] for i in range(n)) and any(
                sum(a * b for a, b in zip(row, v)) for row in cm
            ):
                return lam, v
    return None


def admissible_horizon(c, a_tilde, *, margin=1e-9, limit=1000):
    """Gilbert & Tan's bound on the determination index, from norms alone.

    With ``O`` the first n output blocks ``c a_tilde**i`` and
    ``R = ||pinv(O)||_inf``, every state of ``Theta_j`` (j >= n-1) has
    ``|x|_inf <= R epsilon``, so block i holds on it once
    ``||c a_tilde**i||_inf R <= 1``.  With ``m`` the first power with
    ``||a_tilde**m||_inf <= 1``, m such blocks in a row after j make every
    later block hold too, so ``Theta_j`` is the capacity set and the index
    is at most j.  Returns the first such j, or None when ``O`` has rank
    below n or no m or j turns up within ``limit`` steps.  Every norm is
    inflated by ``1 + margin``, so rounding can only make the bound larger.
    """
    at = np.asarray(a_tilde, dtype=float)
    n = at.shape[0]
    grow = 1.0 + margin
    blocks = [np.asarray(c, dtype=float)]
    while len(blocks) < n:
        blocks.append(blocks[-1] @ at)
    obs = np.vstack(blocks)
    if np.linalg.matrix_rank(obs) < n:
        return None
    reach = grow * np.abs(np.linalg.pinv(obs)).sum(axis=1).max()
    power, m = at, 1
    while grow * np.abs(power).sum(axis=1).max() > 1.0:
        if m == limit:
            return None
        power, m = power @ at, m + 1
    block, run = blocks[-1], 0
    for i in range(n, n + limit):
        block = block @ at
        run = run + 1 if grow * np.abs(block).sum(axis=1).max() * reach <= 1.0 else 0
        if run == m:
            return i - m
    return None
