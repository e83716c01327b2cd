"""Capacity sets of state-feedback gains under output bands.

A plant ``x_{i+1} = A x_i + B u_i``, ``y_i = C x_i`` is closed with
``u_i = K x_i``, giving ``x_{i+1} = (A + B K) x_i``.  The initial state is a
scaled nominal vector plus an offset, ``x_0 = alpha * tau0 + beta``.  The
*capacity set* of the gain collects every initial state whose entire output
history stays inside the band ``|y_i|_inf <= epsilon``:

    Theta = { x : |C (A+BK)^i x|_inf <= epsilon  for all i >= 0 }.

Truncating the history at step k gives a shrinking family of polyhedra
``Theta_k``; as soon as ``Theta_{k+1} = Theta_k`` the family has converged
and ``Theta`` equals the finite polyhedron ``Theta_k``.  :func:`determine`
detects that fixpoint by linear programming: the band at step k+1 is already
implied exactly when each signed output row at step k+1 has maximum at most
epsilon over ``Theta_k``.  ``Theta_k`` is centrally symmetric, so a row and
its negation have the same maximum and each row is maximized once.  The
smallest such k is the determination index.  One
:class:`~gaincap.lp.Band` carries the stacked rows through the search and
answers each step's LPs (see :mod:`gaincap.lp`).

Because trajectories are linear in (alpha, beta), the gain tolerates *every*
disturbance pair at once exactly when tau0 and each canonical basis vector
lie in Theta; :func:`check_gain` reduces admissibility to those n+1
membership tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_count,
    as_matrix,
    as_real,
    as_vector,
    controllability_matrix,
    induced_inf_norm,
    rank,
    spectral_radius,
)
from .lp import EPSILON_RULE, Band, SimplexBudgetError

__all__ = [
    "DETERMINED",
    "ITERATION_LIMIT",
    "SystemSpec",
    "Gain",
    "IterationRecord",
    "CapacitySet",
    "Violation",
    "MembershipResult",
    "BetaViolation",
    "SensitivityReport",
    "AnalysisReport",
    "Trajectory",
    "DeterminationError",
    "closed_loop",
    "sensitivity_rows",
    "determine",
    "stop_test",
    "membership",
    "check_gain",
    "analyze",
    "simulate",
    "region_sample",
]

DETERMINED = "determined"
ITERATION_LIMIT = "iteration_limit"

# relative, as stop_tol is: a state is inside when every row product is at
# most epsilon * (1 + MEMBERSHIP_TOL), so the answer keeps to the output units
MEMBERSHIP_TOL = 1e-12
# simulate looks for a state that maps to its own bits once per this many steps
SETTLE_STRIDE = 64


class DeterminationError(RuntimeError):
    """The determination loop could not finish a step: the LP solver gave
    up, met a band row too small to scale against epsilon or found a maximum
    past the floating-point range, or an output row overflowed that range.

    Carries the step ``k`` and the 1-based signed constraint index ``s``
    that was being maximized when the loop stopped.
    """

    def __init__(self, message: str, step: int, constraint: int):
        super().__init__(message)
        self.step = step
        self.constraint = constraint


@dataclass(frozen=True)
class SystemSpec:
    """Plant data: dynamics ``a``, input map ``b``, output map ``c``, the
    nominal initial state ``tau0``, and the output band half-width
    ``epsilon``.  ``b`` may be None when only the closed loop is known."""

    a: np.ndarray
    b: np.ndarray | None
    c: np.ndarray
    tau0: np.ndarray
    epsilon: float

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be square, got {a.shape[0]}x{a.shape[1]}")
        n = a.shape[0]
        b = None
        if self.b is not None:
            b = as_matrix(self.b, "b")
            if b.shape[0] != n:
                raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
        c = as_matrix(self.c, "c")
        if c.shape[1] != n:
            raise ValueError(f"c has {c.shape[1]} columns, expected {n}")
        tau0 = as_vector(self.tau0, "tau0")
        if tau0.shape[0] != n:
            raise ValueError(f"tau0 has length {tau0.shape[0]}, expected {n}")
        eps = as_real(self.epsilon, "epsilon", 0.0, "a positive finite real", exclusive=True)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "tau0", tau0)
        object.__setattr__(self, "epsilon", eps)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int | None:
        return None if self.b is None else self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class Gain:
    """State-feedback matrix for ``u_i = k x_i``."""

    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", as_matrix(self.k, "k"))


@dataclass(frozen=True)
class IterationRecord:
    """One pass of the determination loop.

    ``values[s-1]`` is the LP maximum of signed output row s at step
    ``step + 1`` over the step-``step`` truncation; unbounded programs are
    recorded as ``inf``.  Each row is maximized once: by symmetry of the
    truncation, ``values[2j]`` (+row) and ``values[2j+1]`` (-row) are equal.
    ``answers[j]`` is ``(start, pivots)`` of row j's LP, aligned with
    ``values[0::2]``: how it was answered (see :class:`~gaincap.lp.LpOutcome`)
    and the pivots it took.

    ``a_tilde`` maps each truncation into the one before, so a row's
    maximum never grows from one step to the next, and a row inside the
    band stays inside.  :func:`check_gain`'s search uses this from step 1
    on: a row whose value at the step before is at most ``epsilon * (1 +
    stop_tol)`` is settled, with no LP.  Its answer is ``("settled", 0)``
    and its values carry that previous value, an upper bound on its
    maximum.  :func:`determine` solves every row at every step.
    """

    step: int
    values: tuple[float, ...]
    stopped: bool
    answers: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class CapacitySet:
    """Finite description of the capacity set (or of its best truncation).

    ``constraint_rows`` stacks the output rows ``C @ a_tilde**i`` for
    i = 0..k0 (0..max_iter-1 when the loop hit its limit); membership means
    every row satisfies ``|row . x| <= epsilon``.  ``status`` is
    ``"determined"`` or ``"iteration_limit"``; ``k0`` is None in the latter
    case and the rows describe a superset of the true capacity set.
    ``history`` holds one :class:`IterationRecord` per step; in a set that
    :func:`check_gain` built, a settled row's values are the bound its
    previous step gave rather than its own LP maximum.
    """

    a_tilde: np.ndarray
    constraint_rows: np.ndarray
    epsilon: float
    output_dim: int
    k0: int | None
    status: str
    history: tuple[IterationRecord, ...] = field(repr=False)


@dataclass(frozen=True)
class Violation:
    """First broken band constraint: time index, 1-based signed constraint
    number (2j-1 for +row j, 2j for -row j), and the attained magnitude."""

    step: int
    constraint: int
    magnitude: float


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    certified: bool
    violation: Violation | None


@dataclass(frozen=True)
class BetaViolation:
    """Offset direction e_j that escapes the band."""

    index: int
    first_violation_step: int
    magnitude: float


@dataclass(frozen=True)
class SensitivityReport:
    """Outcome of the gain admissibility test.

    ``alpha_tolerable`` reports tau0's membership, ``beta_violations`` lists
    every basis direction that breaks the band, and ``admissible`` is their
    conjunction.  ``capacity`` keeps the set the verdict was computed on.
    """

    alpha_tolerable: bool
    alpha_violation: Violation | None
    beta_violations: tuple[BetaViolation, ...]
    admissible: bool
    capacity: CapacitySet


@dataclass(frozen=True)
class AnalysisReport:
    """Structural preconditions that guarantee the determination loop stops.

    ``controllable`` is None when no input map was supplied.  The norm
    guarantee (contraction in the max norm) and the structural guarantee
    (controllable + observable + spectral radius below one) are each
    sufficient on their own.  ``decay_index`` is the first step from which
    every later output-row block within the horizon has induced max-norm at
    most epsilon; it is only reported for spectrally stable loops.
    """

    controllable: bool | None
    observable: bool
    spectral_radius: float
    inf_norm: float
    norm_guarantee: bool
    structural_guarantee: bool
    decay_index: int | None


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop run: states (steps+1) x n, inputs (steps+1) x m when a
    gain is known, outputs (steps+1) x p."""

    states: np.ndarray
    inputs: np.ndarray | None
    outputs: np.ndarray


def closed_loop(sys: SystemSpec, gain: Gain) -> np.ndarray:
    """Closed-loop dynamics ``a + b @ k``.  Raises :class:`OverflowError`
    when an entry leaves the floating-point range."""
    if sys.b is None:
        raise ValueError("system has no input map b; supply a_tilde directly")
    k = gain.k
    if k.shape != (sys.b.shape[1], sys.n):
        raise ValueError(
            f"gain is {k.shape[0]}x{k.shape[1]}, expected {sys.b.shape[1]}x{sys.n}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        at = sys.a + sys.b @ k
        if not _all_finite(at):
            raise OverflowError("the closed loop a + b k left the floating-point range")
    return at


def _resolve_a_tilde(sys: SystemSpec, gain: Gain | None, a_tilde) -> np.ndarray:
    if (gain is None) == (a_tilde is None):
        raise ValueError("provide exactly one of gain and a_tilde")
    return closed_loop(sys, gain) if gain is not None else _as_a_tilde(a_tilde, sys.n)


def _as_a_tilde(a_tilde, n: int) -> np.ndarray:
    """A caller's closed loop, checked as a finite n x n matrix."""
    at = as_matrix(a_tilde, "a_tilde")
    if at.shape != (n, n):
        raise ValueError(f"a_tilde must be {n}x{n}, got {at.shape[0]}x{at.shape[1]}")
    return at


def sensitivity_rows(sys: SystemSpec, a_tilde, horizon: int) -> np.ndarray:
    """Stack the output rows ``c @ a_tilde**i`` for i = 0..horizon.

    Row block i dotted with tau0 gives the per-step sensitivity of the
    output to the initial-state scale; dotted with e_j it gives the
    sensitivity to the j-th offset component.  Blocks are built by row
    propagation (block_{i+1} = block_i @ a_tilde), never by matrix powers.
    Raises :class:`OverflowError` naming the first block that left the
    floating-point range.
    """
    at = _resolve_a_tilde(sys, None, a_tilde)
    horizon = as_count(horizon, "horizon", 0, "nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        return _output_rows(sys, at, horizon)


def _output_rows(sys: SystemSpec, at: np.ndarray, horizon: int) -> np.ndarray:
    """:func:`sensitivity_rows` of a checked ``at`` and ``horizon``, under the
    errstate of :func:`_all_finite`."""
    p = sys.p
    out = np.empty(((horizon + 1) * p, sys.n))
    out[:p] = sys.c
    for i in range(p, out.shape[0], p):
        np.matmul(out[i - p : i], at, out=out[i : i + p])
    _require_finite([out], p, "output rows")
    out.setflags(write=False)
    return out


def _all_finite(t: np.ndarray) -> bool:
    """Whether every entry of ``t`` is finite, under an errstate ignoring over
    and invalid: a finite sum proves it; else the entries are scanned."""
    return math.isfinite(t.sum()) or bool(np.isfinite(t).all())


def _require_finite(tables: list, rows_per_step: int, what: str) -> None:
    """Raise :class:`OverflowError` naming the first step whose rows of
    ``tables`` (row-aligned, ``rows_per_step`` rows per step) hold an inf
    or NaN.  Called under the errstate of :func:`_all_finite`."""
    if all(map(_all_finite, tables)):
        return
    finite = np.all([np.isfinite(t).all(axis=1) for t in tables], axis=0)
    step = int(np.argmin(finite)) // rows_per_step
    raise OverflowError(f"{what} left the floating-point range at step {step}")


def _advance(block: np.ndarray, a_tilde: np.ndarray, step: int) -> np.ndarray:
    """The output rows one step later, ``block @ a_tilde``.  A row that
    overflows the floating-point range raises :class:`DeterminationError`
    for ``step``, in place of numpy's overflow warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = block @ a_tilde
        if _all_finite(out):
            return out
    j = int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
    raise DeterminationError(
        f"output row {j + 1} overflowed the floating-point range",
        step=step,
        constraint=2 * j + 1,
    )


def _step(band: Band, rows: np.ndarray, stop_tol: float, step: int,
          previous: tuple[float, ...] = ()) -> IterationRecord:
    """One convergence test: the maxima of every signed row of ``rows`` over
    ``band``, stopped when all are within ``epsilon * (1 + stop_tol)``.  The
    band is centrally symmetric, so each row is maximized once and its
    negation recorded with the same maximum, the value of its outcome or
    inf when it has none, and its outcome's start and pivots kept as its
    answer; a failed join stops at constraint 1.  A row whose value in
    ``previous``, the values of the step before, is within that bound is
    settled with no LP (see :class:`IterationRecord`)."""
    bound = band.epsilon * (1.0 + stop_tol)
    settled = [v if v <= bound else None for v in previous[0::2]]
    values, answers = [], []
    try:
        for outcome in band.maxima(rows, settled):
            value = math.inf if outcome.value is None else outcome.value
            values += [value, value]
            answers.append((outcome.start, outcome.pivots))
    except (SimplexBudgetError, OverflowError) as err:
        message = f"LP solver gave up: {err}"
        raise DeterminationError(message, step=step, constraint=len(values) + 1) from err
    stopped = all(v <= bound for v in values)
    return IterationRecord(step, tuple(values), stopped, tuple(answers))


def determine(
    sys: SystemSpec,
    gain: Gain | None = None,
    *,
    a_tilde=None,
    max_iter: int = 200,
    stop_tol: float = 1e-9,
) -> CapacitySet:
    """Run the fixpoint search for the capacity set.

    At each step k the band constraints through step k are held fixed and
    each output row at step k+1 is maximized (by symmetry, so is its
    negation).  When every maximum is at most ``epsilon * (1 + stop_tol)``
    the truncation has converged: k is the determination index and the
    stacked rows describe the capacity set exactly; the tolerance is
    relative, so the answer does not change with the units of the outputs.
    An unbounded subproblem or a larger maximum advances k.  One :class:`~gaincap.lp.Band` carries the
    stack through the search.  After ``max_iter`` steps the status is
    ``"iteration_limit"`` and the accumulated rows describe an outer
    truncation only.  Every row is solved at every step, so the history
    holds each step's LP maxima.
    """
    return _search(sys, gain, a_tilde, max_iter, stop_tol, settle=False)


def _search(sys: SystemSpec, gain: Gain | None, a_tilde, max_iter: int, stop_tol: float,
            settle: bool) -> CapacitySet:
    """The fixpoint search of :func:`determine`; with ``settle``, as
    :func:`check_gain` runs it, a row within the band at one step is
    settled at the next (see :class:`IterationRecord`)."""
    at = _resolve_a_tilde(sys, gain, a_tilde)
    max_iter = as_count(max_iter, "max_iter", 1, "at least 1")
    stop_tol = as_real(stop_tol, "stop_tol", 0.0, "a nonnegative finite number")
    band = Band(sys.c, sys.epsilon)  # block k joins at step k, once advanced
    blocks = [sys.c]
    history: list[IterationRecord] = []
    for k in range(max_iter):
        objective = _advance(blocks[-1], at, k)
        previous = history[-1].values if settle and history else ()
        history.append(_step(band, objective, stop_tol, k, previous))
        if history[-1].stopped:
            break
        blocks.append(objective)
    # on the limit the last block never joined: the rows hold steps 0..max_iter-1
    stopped = history[-1].stopped
    rows = np.vstack(blocks[: len(history)])
    rows.setflags(write=False)
    return CapacitySet(
        a_tilde=at,
        constraint_rows=rows,
        epsilon=sys.epsilon,
        output_dim=sys.p,
        k0=history[-1].step if stopped else None,
        status=DETERMINED if stopped else ITERATION_LIMIT,
        history=tuple(history),
    )


def stop_test(
    cap: CapacitySet, objective_step: int, *, stop_tol: float = 1e-9
) -> tuple[bool, tuple[float, ...]]:
    """Re-run the convergence test of a capacity set at a chosen step.

    Maximizes each output row at ``objective_step`` over the set's stored
    constraints (its negation has the same maximum by symmetry) and reports
    whether all signed maxima stay within ``epsilon * (1 + stop_tol)``, over
    a band the stored rows join as one block.  For a determined set this must
    pass at every step beyond k0 — the fixpoint, once reached, persists.
    """
    objective_step = as_count(objective_step, "objective_step", 0, "nonnegative")
    stop_tol = as_real(stop_tol, "stop_tol", 0.0, "a nonnegative finite number")
    # a caller-built set enters here
    rows = as_matrix(_stored_rows(cap), "constraint rows")
    at = _as_a_tilde(cap.a_tilde, rows.shape[1])
    block = rows[: cap.output_dim]
    for _ in range(objective_step):
        block = _advance(block, at, objective_step)
    record = _step(Band(rows, cap.epsilon), block, stop_tol, objective_step)
    return record.stopped, record.values


def _first_violations(cap: CapacitySet, products: np.ndarray) -> list[Violation | None]:
    """Earliest band constraint broken by each column of ``products``, one
    state's row products each, in one pass over all of them."""
    broken = np.abs(products) > cap.epsilon * (1.0 + MEMBERSHIP_TOL)
    first = broken.argmax(axis=0) if len(broken) else None  # no rows break nothing
    violations = [None] * products.shape[1]
    for col in np.flatnonzero(broken.any(axis=0)).tolist():
        value = products[first[col], col]
        step, j = divmod(int(first[col]), cap.output_dim)
        violations[col] = Violation(
            step=step,
            constraint=2 * j + 1 if value > 0 else 2 * j + 2,
            magnitude=float(abs(value)),
        )
    return violations


def _stored_rows(cap: CapacitySet) -> np.ndarray:
    """A caller's set's rows as a float64 matrix, which may be empty or hold
    inf and NaN; its epsilon is checked as :class:`~gaincap.lp.Band` checks
    it, and its output_dim must be a count of at least 1 dividing the rows."""
    as_real(cap.epsilon, "epsilon", 0.0, EPSILON_RULE)
    rows = as_matrix(cap.constraint_rows, "constraint rows", strict=False)
    output_dim = as_count(cap.output_dim, "output_dim", 1, "at least 1")
    if rows.shape[0] % output_dim:
        raise ValueError(f"output_dim {output_dim} does not divide the {rows.shape[0]} rows")
    return rows


def membership(cap: CapacitySet, x) -> MembershipResult:
    """Test whether a state lies in the capacity set.

    Reports the earliest violated band constraint when outside.  For an
    iteration-limited set the rows only bound the true set from outside, so
    a pass is marked uncertified — but any violation is conclusive.
    """
    rows = _stored_rows(cap)
    x = as_vector(x, "x")
    if x.shape[0] != rows.shape[1]:
        raise ValueError(f"x has length {x.shape[0]}, expected {rows.shape[1]}")
    (violation,) = _first_violations(cap, (rows @ x)[:, None])
    return MembershipResult(
        member=violation is None,
        certified=cap.status == DETERMINED,
        violation=violation,
    )


def check_gain(
    sys: SystemSpec,
    gain: Gain | None = None,
    *,
    a_tilde=None,
    max_iter: int = 200,
    stop_tol: float = 1e-9,
) -> SensitivityReport:
    """Decide whether the gain keeps every disturbed start inside the band.

    By linearity the output history of ``x_0 = alpha tau0 + beta`` is the
    alpha-scaled history of tau0 plus the beta-weighted histories of the
    basis vectors, so the gain tolerates all disturbances exactly when tau0
    and each e_j belong to the capacity set.

    The set is :func:`determine`'s, with the same rows, index and status,
    but its search needs only whether each step stops: a row inside the
    band at one step stays inside, as its maximum never grows, so from step
    1 on such a row is settled with no LP and its history records the
    previous value, an upper bound on its maximum (see
    :class:`IterationRecord`).
    """
    cap = _search(sys, gain, a_tilde, max_iter, stop_tol, settle=True)
    # rows @ [tau0 | I], whose identity block is the rows themselves
    products = np.empty((cap.constraint_rows.shape[0], sys.n + 1))
    products[:, 0], products[:, 1:] = cap.constraint_rows @ sys.tau0, cap.constraint_rows
    alpha_violation, *violations = _first_violations(cap, products)
    beta_violations = tuple(
        BetaViolation(index=j, first_violation_step=v.step, magnitude=v.magnitude)
        for j, v in enumerate(violations, start=1)
        if v is not None
    )
    return SensitivityReport(
        alpha_tolerable=alpha_violation is None,
        alpha_violation=alpha_violation,
        beta_violations=beta_violations,
        admissible=alpha_violation is None and not beta_violations,
        capacity=cap,
    )


def analyze(
    sys: SystemSpec,
    gain: Gain | None = None,
    *,
    a_tilde=None,
    horizon: int | None = None,
) -> AnalysisReport:
    """Check the structural conditions under which determination is assured.

    Either a max-norm contraction (induced norm of the closed loop below
    one) or the combination controllable + observable + spectral radius
    below one guarantees the fixpoint search stops.  When the loop is
    spectrally stable the output rows decay; ``decay_index`` is the first
    step from which every block through the horizon already fits the band.
    Raises :class:`OverflowError` naming the first step at which the
    controllability matrix or the output rows left the floating-point range,
    or when the closed loop's induced max-norm does.  An output-row block
    whose max-norm overflows counts as outside the band.
    """
    at = _resolve_a_tilde(sys, gain, a_tilde)
    if horizon is None:
        horizon = 4 * sys.n
    horizon = as_count(horizon, "horizon", sys.n, f"at least n = {sys.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # one for every product and sum
        if sys.b is not None:
            blocks = controllability_matrix(sys.a, sys.b)
            # block i is A^i B, the response i steps after an input impulse
            _require_finite([blocks.T], sys.b.shape[1], "the controllability matrix")
        rows = _output_rows(sys, at, horizon)
        # each output-row block's max-norm; a row sum of finite entries can
        # still overflow, and inf is above the band
        sizes = np.abs(rows).reshape(horizon + 1, sys.p, sys.n)
        norms = np.maximum.reduce(np.add.reduce(sizes, axis=2), axis=1)
    controllable = None if sys.b is None else rank(blocks) == sys.n
    # horizon >= n, so the first n blocks form the observability matrix
    observable = rank(rows[: sys.n * sys.p]) == sys.n
    # the radius is at most the norm, so the norm's overflow is met first
    norm = induced_inf_norm(at)
    radius = spectral_radius(at)
    decay_index = None
    if radius < 1.0:
        over = np.flatnonzero(norms > sys.epsilon)
        last = int(over[-1]) if over.size else -1
        decay_index = last + 1 if last < horizon else None
    return AnalysisReport(
        controllable=controllable,
        observable=observable,
        spectral_radius=radius,
        inf_norm=norm,
        norm_guarantee=norm < 1.0,
        structural_guarantee=bool(controllable) and observable and radius < 1.0,
        decay_index=decay_index,
    )


def simulate(
    sys: SystemSpec,
    gain: Gain | None = None,
    *,
    a_tilde=None,
    alpha: float,
    beta,
    steps: int,
) -> Trajectory:
    """Propagate ``x_0 = alpha tau0 + beta`` through the closed loop.

    When a gain is supplied the realized inputs ``u_i = k x_i`` are
    recorded; with only the closed-loop matrix the inputs are None.  Both
    may be given together (a_tilde drives the dynamics, the gain reports
    inputs).  Raises :class:`OverflowError` naming the first step whose
    state, input or output left the floating-point range.

    A stable loop in floating point often reaches a rounding fixed point, a
    state that ``a_tilde`` maps to the same bits.  Equal bits give an equal
    product, so from there every row repeats: the loop looks for such a
    state every ``SETTLE_STRIDE`` steps and fills the remaining rows with
    it.  The arrays are bit-identical to stepping all ``steps``.
    """
    at = _resolve_a_tilde(sys, gain if a_tilde is None else None, a_tilde)
    beta = as_vector(beta, "beta")
    if beta.shape[0] != sys.n:
        raise ValueError(f"beta has length {beta.shape[0]}, expected {sys.n}")
    steps = as_count(steps, "steps", 0, "nonnegative")
    alpha = as_real(alpha, "alpha")
    if gain is not None and gain.k.shape[1] != sys.n:
        raise ValueError(f"gain has {gain.k.shape[1]} columns, expected {sys.n}")
    states = np.empty((steps + 1, sys.n))
    # one finiteness check after the loop, not one per step
    with np.errstate(over="ignore", invalid="ignore"):
        states[0] = alpha * sys.tau0 + beta
        for start in range(0, steps, SETTLE_STRIDE):
            for i in range(start, min(start + SETTLE_STRIDE, steps)):
                states[i + 1] = at @ states[i]
            # equal bits in give equal bits out, so a state that maps to its
            # own bits repeats to the end; bits, not values, keep -0.0 apart
            if states[i + 1].tobytes() == states[i].tobytes():
                states[i + 2 :] = states[i + 1]
                break
        outputs = states @ sys.c.T
        inputs = None if gain is None else states @ gain.k.T
        _require_finite([t for t in (states, inputs, outputs) if t is not None], 1, "the trajectory")
    if inputs is not None:
        inputs.setflags(write=False)
    states.setflags(write=False)
    outputs.setflags(write=False)
    return Trajectory(states=states, inputs=inputs, outputs=outputs)


def _row_runs(rows: np.ndarray, bound: float, xs: np.ndarray, ys: np.ndarray):
    """Each raster row's run of inside cells ``[first, stop)``, and whether
    the cells evaluated beside its estimated ends settle it."""
    grid = xs.shape[0]
    r0, r1 = rows[:, 0], rows[:, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # slab r holds the x between (+-bound - r1 y) / r0 on row y
        ends = (np.array([-bound, bound])[:, None, None] - np.multiply.outer(ys, r1)) / r0
        first = np.searchsorted(xs, ends.min(axis=0).max(axis=1))
        stop = np.searchsorted(xs, ends.max(axis=0).min(axis=1), side="right")
        # two cells on each side of each estimated end, all in one product
        beside = np.arange(-2, 2)
        near = np.clip(np.hstack([first[:, None] + beside, stop[:, None] + beside]), 0, grid - 1)
        points = np.empty((near.size, 2))
        points[:, 0] = xs[near.ravel()]
        points[:, 1] = np.repeat(ys, near.shape[1])
        values = (points @ rows.T).reshape(*near.shape, -1)
    magnitude = np.abs(values)
    inside = np.all(magnitude <= bound, axis=-1)
    # a cell outside slab r on the side its value moves toward as x decreases
    # (either side when r0 = 0) has every cell on its left outside too, and
    # likewise right
    outside = magnitude > bound
    below = values < 0.0
    rising, falling = r0 > 0.0, r0 < 0.0
    left_out = (outside & np.where(below, ~falling, ~rising)).any(axis=-1)
    right_out = (outside & np.where(below, ~rising, ~falling)).any(axis=-1)
    first = np.where(left_out, near, -1).max(axis=1) + 1
    stop = np.where(right_out, near, grid).min(axis=1)
    # the run is [first, stop) when its end cells first and stop - 1 were
    # found inside, and empty when the cells outside on either side meet
    settled = (stop <= first) | (
        (inside & (near == first[:, None])).any(axis=1)
        & (inside & (near == stop[:, None] - 1)).any(axis=1)
    )
    return first, stop, settled


def region_sample(cap: CapacitySet, x_range, y_range, grid: int) -> np.ndarray:
    """Rasterize a planar capacity set over a rectangle.

    Returns a boolean array indexed [row, column] = [y index, x index] with
    both axes sampled on ``grid`` evenly spaced points, ranges inclusive.  A
    cell is inside when ``|r . (x, y)| <= epsilon * (1 + MEMBERSHIP_TOL)``
    for every constraint row r, with the values of one matrix product of the
    points and the rows.

    Each raster row is one run of inside cells.  Along a row every value
    ``r0 x + r1 y`` is monotone in x, as the xs are sorted and rounding is
    monotone, so each slab and their intersection meet the row in one run.
    Its ends are estimated in closed form and decided by the cells beside
    them; a row those cells do not settle is evaluated cell by cell.  Beyond
    O(grid) floats the working memory is the raster and one temporary of
    the same size.
    """
    rows = _stored_rows(cap)
    if rows.shape[1] != 2:
        raise ValueError(
            "region sampling requires a two-state system, got "
            f"{rows.shape[1]} states"
        )
    grid = as_count(grid, "grid", 2, "at least 2")
    (x_lo, x_hi), (y_lo, y_hi) = (
        [as_real(window[i], f"{name}[{i}]") for i in (0, 1)]
        for name, window in (("x_range", x_range), ("y_range", y_range))
    )
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("ranges must be nonempty intervals")
    # a width past the float range would sample inf and NaN, unsorted, xs
    if not np.all(np.isfinite([x_hi - x_lo, y_hi - y_lo])):
        raise ValueError("ranges must have widths within the floating-point range")
    xs = np.linspace(x_lo, x_hi, grid)
    ys = np.linspace(y_lo, y_hi, grid)
    bound = cap.epsilon * (1.0 + MEMBERSHIP_TOL)
    first, stop, settled = _row_runs(rows, bound, xs, ys)
    columns = np.arange(grid)
    raster = columns >= first[:, None]
    raster &= columns < stop[:, None]
    unsettled = np.flatnonzero(~settled)
    if unsettled.size:
        pts = np.stack(np.meshgrid(xs, ys[unsettled]), axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            raster[unsettled] = np.all(np.abs(pts @ rows.T) <= bound, axis=-1)
    raster.setflags(write=False)
    return raster
