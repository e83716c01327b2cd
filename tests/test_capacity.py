import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gaincap.capacity
import gaincap.linalg
import gaincap.lp
from gaincap.capacity import (
    DETERMINED,
    ITERATION_LIMIT,
    BetaViolation,
    DeterminationError,
    Gain,
    MembershipResult,
    SystemSpec,
    Violation,
    analyze,
    check_gain,
    closed_loop,
    determine,
    membership,
    region_sample,
    sensitivity_rows,
    simulate,
    stop_test,
)
from gaincap.cli import load_problem

ROOT2 = math.sqrt(2.0)


def two_state():
    return SystemSpec(
        a=[[0.9, 0.0], [0.6, 0.3]],
        b=[[-1.5, 2.0], [1.0, -3.0]],
        c=[[1.0, 1.0]],
        tau0=[0.3, 0.5],
        epsilon=ROOT2,
    )


def two_state_gain():
    return Gain([[0.32, 0.16], [0.24, 0.12]])


def test_system_validation():
    with pytest.raises(ValueError, match="square"):
        SystemSpec([[1.0, 0.0]], None, [[1.0, 0.0]], [0.0, 0.0], 1.0)
    # a bool is no band width, though float(True) is 1.0; a string is none
    # though float("1.0") is, and None, a list or 10**400 is no TypeError or
    # OverflowError
    for bad in (0.0, True, np.True_, "1.0", None, [1], 10**400):
        with pytest.raises(ValueError, match="epsilon must be a positive finite real"):
            SystemSpec([[1.0]], None, [[1.0]], [0.0], bad)
    with pytest.raises(ValueError, match="tau0"):
        SystemSpec([[1.0]], None, [[1.0]], [0.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="b has"):
        SystemSpec([[1.0]], [[1.0], [2.0]], [[1.0]], [0.0], 1.0)


def test_closed_loop_frozen():
    assert np.allclose(
        closed_loop(two_state(), two_state_gain()), [[0.9, 0.0], [0.2, 0.1]]
    )
    sys2 = SystemSpec(
        [[1.0, 0.0], [2.0, 0.3]], [[-2.0, 2.0], [1.0, -3.0]], [[-1.0, 1.0]], [0.3, 0.5], 0.4
    )
    assert np.allclose(
        closed_loop(sys2, Gain([[1.875, 0.35], [1.625, 0.35]])),
        [[0.5, 0.0], [-1.0, -0.4]],
    )
    assert np.allclose(closed_loop(two_state(), Gain(np.zeros((2, 2)))), two_state().a)


def test_closed_loop_overflow_names_the_closed_loop():
    # b @ k of a finite gain leaves the float range: numpy's overflow warning
    # (an error under pytest's filterwarnings) must not escape, and every
    # entry point stops on the closed loop, not on an output row
    sys_ = SystemSpec(two_state().a, [[1.0, 2.0], [3.0, 1.0]], [[1.0, 1.0]], [0.3, 0.5], 1.0)
    gain = Gain([[1e308, 1e308], [1e308, 1e308]])
    for call in (closed_loop, determine, check_gain, analyze):
        with pytest.raises(OverflowError, match="closed loop a \\+ b k left the floating-point"):
            call(sys_, gain)
    with pytest.raises(OverflowError, match="closed loop"):
        simulate(sys_, gain, alpha=1.0, beta=[0.0, 0.0], steps=2)


def test_closed_loop_requires_input_map():
    sys_no_b = SystemSpec([[1.0]], None, [[1.0]], [0.0], 1.0)
    with pytest.raises(ValueError, match="input map"):
        closed_loop(sys_no_b, Gain([[1.0]]))


def test_sensitivity_rows_frozen():
    rows = sensitivity_rows(two_state(), [[0.9, 0.0], [0.2, 0.1]], 2)
    assert np.allclose(rows, [[1.0, 1.0], [1.1, 0.1], [1.01, 0.01]])
    assert np.allclose(sensitivity_rows(two_state(), np.eye(2), 0), [[1.0, 1.0]])
    rows7 = sensitivity_rows(two_state(), [[1.0, 0.0], [0.5, -0.1]], 1)
    assert np.allclose(rows7, [[1.0, 1.0], [1.5, -0.1]])


def test_sensitivity_rows_checks_the_shape_of_a_tilde():
    for bad in (np.eye(3), np.ones((2, 3)), np.ones((3, 2))):
        rows, cols = bad.shape
        with pytest.raises(ValueError, match=f"a_tilde must be 2x2, got {rows}x{cols}"):
            sensitivity_rows(two_state(), bad, 2)


def test_determine_requires_one_loop_description():
    with pytest.raises(ValueError, match="exactly one"):
        determine(two_state())
    with pytest.raises(ValueError, match="exactly one"):
        determine(two_state(), two_state_gain(), a_tilde=np.eye(2))


def test_determine_rejects_bad_stop_tol():
    cap = determine(two_state(), two_state_gain())
    # an int past the float range is refused as the CLI refuses it, where
    # epsilon + stop_tol would raise OverflowError after the first LPs
    for bad in (-1.0, math.inf, math.nan, True, 10**400):
        with pytest.raises(ValueError, match="stop_tol"):
            determine(two_state(), two_state_gain(), stop_tol=bad)
        with pytest.raises(ValueError, match="stop_tol"):
            stop_test(cap, 0, stop_tol=bad)
    # a value that is no number is refused the same way, not by a TypeError
    for bad in ("1e-9", None, [1]):
        with pytest.raises(ValueError, match="stop_tol"):
            determine(two_state(), two_state_gain(), stop_tol=bad)
        with pytest.raises(ValueError, match="stop_tol"):
            check_gain(two_state(), two_state_gain(), stop_tol=bad)
        with pytest.raises(ValueError, match="stop_tol"):
            stop_test(cap, 0, stop_tol=bad)


def test_determine_two_state_frozen():
    cap = determine(two_state(), two_state_gain())
    assert cap.status == DETERMINED
    assert cap.k0 == 2
    assert np.allclose(
        cap.constraint_rows, [[1.0, 1.0], [1.1, 0.1], [1.01, 0.01]], atol=1e-9
    )
    # the first two passes fail: a one-row band is a slab, so the next row is
    # unconstrained along it
    assert cap.history[0].values == (math.inf, math.inf)
    assert not cap.history[0].stopped
    assert cap.history[2].stopped


def test_determine_via_gain_matches_a_tilde():
    cap_k = determine(two_state(), two_state_gain())
    cap_a = determine(two_state(), a_tilde=[[0.9, 0.0], [0.2, 0.1]])
    assert cap_k.k0 == cap_a.k0
    assert np.allclose(cap_k.constraint_rows, cap_a.constraint_rows)


def test_determine_exact_stop_value():
    sys2 = SystemSpec(
        [[1.0, 0.0], [2.0, 0.3]], [[-2.0, 2.0], [1.0, -3.0]], [[-1.0, 1.0]], [0.3, 0.5], 0.4
    )
    cap = determine(sys2, a_tilde=[[0.5, 0.0], [-1.0, -0.4]])
    assert cap.k0 == 1
    assert cap.history[1].values == pytest.approx((0.12, 0.12), abs=1e-9)


def test_determine_boundary_stop():
    # the marginally stable loop pins the stopping maxima at exactly epsilon,
    # exercising the stop tolerance as a roundoff guard
    cap = determine(two_state(), a_tilde=[[1.0, 0.0], [0.5, -0.1]])
    assert cap.k0 == 1
    assert max(cap.history[1].values) == pytest.approx(ROOT2, abs=1e-9)


def test_determine_three_state():
    sys5 = SystemSpec(
        a=[[1.0, 3.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 2.0, 0.0]],
        b=[[-1.0, -1.0, 0.0], [1.0, 2.0, -2.0], [1.0, 2.0, 0.0]],
        c=[[-0.1, -0.3, 0.2]],
        tau0=[0.3, 0.5, 0.2],
        epsilon=0.2,
    )
    cap = determine(sys5, Gain([[1.0, 8.4, 0.0], [-1.0, -5.4, 0.0], [-1.0, -0.5, 0.0]]))
    assert cap.status == DETERMINED
    assert cap.k0 == 2
    assert cap.constraint_rows.shape == (3, 3)


def test_determine_multi_output():
    sys10 = SystemSpec(
        a=[[0.0, 4.0], [6.0, 1.0]],
        b=[[2.0, 0.0], [0.0, 1.0]],
        c=[[2.0, -2.0], [-1.0, 0.04], [-1.0, 3.0]],
        tau0=[0.3, 0.5],
        epsilon=0.2,
    )
    cap = determine(sys10, a_tilde=[[1.0, -1.0], [0.0, -1.0]])
    assert cap.k0 == 1
    assert cap.output_dim == 3
    assert cap.constraint_rows.shape == (6, 2)
    assert len(cap.history[1].values) == 6


def test_determine_iteration_limit():
    # one closed-loop eigenvalue sits at 2 and shows up in the output, so the
    # band can never absorb the next step; the loop must hit its ceiling
    sys9 = SystemSpec(
        a=np.eye(5),
        b=None,
        c=[[-0.1, -0.1, 1.0, 0.0, -0.5], [-0.1, -1.0, 0.0, 0.0, 1.0]],
        tau0=[0.1, 0.1, 0.1, 0.1, 0.1],
        epsilon=0.9,
    )
    a_tilde = [
        [-1.0, 0.0, 0.0, 0.0, 0.0],
        [-1.0, -1.0, 0.0, 0.0, 0.0],
        [-1.0, -0.4, 0.3, 0.0, 0.0],
        [-1.0, -0.4, 0.3, 1.0, 0.0],
        [-1.0, -0.4, 0.3, 0.0, 2.0],
    ]
    cap = determine(sys9, a_tilde=a_tilde, max_iter=25)
    assert cap.status == ITERATION_LIMIT
    assert cap.k0 is None
    assert len(cap.history) == 25
    assert all(max(rec.values) > 0.9 for rec in cap.history)
    assert cap.constraint_rows.shape == (50, 5)


def overflowing_loop():
    # row 1 of step 1 is [1e200, 0.5], and step 2's row overflows to inf
    sys_ = SystemSpec(a=np.eye(2), b=None, c=[[1.0, 1.0]], tau0=[0.1, 0.1], epsilon=1.0)
    return sys_, np.diag([1e200, 0.5])


def test_determine_overflow_raises_determination_error():
    # the objective of step 1 has overflowed; the search must say so, not
    # pass inf to the LP, and numpy's overflow warning (an error under
    # pytest's filterwarnings) must not escape either
    sys_, a_tilde = overflowing_loop()
    with pytest.raises(DeterminationError, match="overflowed") as exc:
        determine(sys_, a_tilde=a_tilde)
    assert (exc.value.step, exc.value.constraint) == (1, 1)


def test_stop_test_overflow_raises_determination_error():
    sys_, a_tilde = overflowing_loop()
    cap = determine(sys_, a_tilde=a_tilde, max_iter=1)
    assert cap.status == ITERATION_LIMIT
    assert stop_test(cap, 1)[0] is False  # [1e200, 0.5] is still finite
    for step in (2, 5):  # inf, then inf * 0 = nan further on
        with pytest.raises(DeterminationError, match="overflowed") as exc:
            stop_test(cap, step)
        assert (exc.value.step, exc.value.constraint) == (step, 1)


def test_analyze_and_simulate_overflow_name_the_step():
    # block 2 of the output rows and the state at step 2 overflow to inf;
    # no numpy warning may escape (pytest turns warnings into errors)
    sys_, a_tilde = overflowing_loop()
    with pytest.raises(OverflowError, match="output rows left the floating-point range at step 2"):
        analyze(sys_, a_tilde=a_tilde)
    with pytest.raises(OverflowError, match="trajectory left the floating-point range at step 2"):
        simulate(sys_, a_tilde=a_tilde, alpha=1.0, beta=[0.0, 0.0], steps=3)
    assert np.isfinite(simulate(sys_, a_tilde=a_tilde, alpha=1.0, beta=[0.0, 0.0], steps=1).states).all()
    # only the last of the 9 blocks overflows: 1e40**8, and the state 0.1e320
    late = np.diag([1e40, 0.5])
    with pytest.raises(OverflowError, match="output rows left the floating-point range at step 8"):
        analyze(sys_, a_tilde=late)
    with pytest.raises(OverflowError, match="trajectory left the floating-point range at step 8"):
        simulate(sys_, a_tilde=late, alpha=1.0, beta=[0.0, 0.0], steps=8)
    assert np.isfinite(sensitivity_rows(sys_, late, 7)).all()
    # a finite state whose output overflows, and a start that overflows at once
    wide = SystemSpec(a=np.eye(2), b=None, c=[[1.0, 1.0]], tau0=[1.0, 1.0], epsilon=1.0)
    with pytest.raises(OverflowError, match="at step 1"):
        simulate(wide, a_tilde=np.diag([1e308, 1e308]), alpha=1.0, beta=[0.0, 0.0], steps=2)
    with pytest.raises(OverflowError, match="at step 0"):
        simulate(wide, a_tilde=np.eye(2), alpha=1e308, beta=[1e308, 0.0], steps=2)
    # A^2 B overflows before any output row is formed
    plant = SystemSpec(
        a=np.diag([1e200, 0.5, 0.5]), b=np.ones((3, 1)), c=[[0.0, 1.0, 1.0]],
        tau0=[0.3, 0.5, 0.1], epsilon=1.0,
    )
    with pytest.raises(OverflowError, match="controllability matrix left .* at step 2"):
        analyze(plant, a_tilde=np.diag([0.5, 0.5, 0.5]))


def test_analyze_row_sums_that_overflow():
    # every entry is finite, but a row sum of |a_tilde| is not: the norm has
    # no float value, and the output-row block whose sum overflows counts as
    # above the band
    wide = SystemSpec(a=np.eye(2), b=None, c=[[0.0, 1.0]], tau0=[0.1, 0.1], epsilon=1.0)
    with pytest.raises(OverflowError, match="induced max-norm left the floating-point range"):
        analyze(wide, a_tilde=[[1e308, 1e308], [0.0, 0.0]])
    tall = SystemSpec(a=np.eye(2), b=None, c=[[1e308, 1e308]], tau0=[0.1, 0.1], epsilon=1e308)
    rep = analyze(tall, a_tilde=0.5 * np.eye(2))
    assert (rep.inf_norm, rep.decay_index) == (0.5, 1)  # block 0 sums to inf, block 1 to 1e308
    rep = analyze(dataclasses.replace(tall, epsilon=1.0), a_tilde=0.5 * np.eye(2))
    assert rep.decay_index is None


def test_finite_entries_whose_sum_overflows():
    # each finiteness check sums first and scans the entries only when the
    # sum is not finite: the row [1e308, 1e308] is finite though its sum is
    # not, and passes with no error and no warning (pytest turns warnings
    # into errors) as a closed loop, output rows, a controllability matrix
    # and states
    row = [1e308, 1e308]
    loop = SystemSpec(a=[row, [0.0, 0.5]], b=[[0.0], [1.0]], c=[[0.0, 1.0]], tau0=[0.0, 0.1],
                      epsilon=1.0)
    zero = Gain([[0.0, 0.0]])
    assert same_bits(closed_loop(loop, zero), loop.a)
    assert determine(loop, zero).k0 == 0
    states = simulate(loop, zero, alpha=1.0, beta=[0.0, 0.0], steps=1).states
    assert same_bits(states[1], loop.a @ loop.tau0)
    tall = SystemSpec(a=0.9 * np.eye(2), b=[[1e308], [1e308]], c=[row], tau0=row, epsilon=1e10)
    cap = determine(tall, zero)  # step 0's objective is [9e307, 9e307]
    assert (cap.k0, cap.constraint_rows.tolist()) == (0, [row])
    rep = analyze(tall, zero)
    assert (rep.controllable, rep.observable, rep.inf_norm) == (False, False, 0.9)
    wide = SystemSpec(a=np.eye(2), b=None, c=[[0.0, 1.0]], tau0=row, epsilon=1.0)
    trajectory = simulate(wide, a_tilde=0.5 * np.eye(2), alpha=1.0, beta=[0.0, 0.0], steps=2)
    assert trajectory.states[2].tolist() == [2.5e307, 2.5e307]


def stepped(sys_, a_tilde, k, alpha, beta, steps):
    """Every state, input and output of ``steps`` plain steps, and the first
    step at which one of them is not finite (None when all are)."""
    with np.errstate(all="ignore"):
        x = alpha * np.asarray(sys_.tau0) + np.asarray(beta, dtype=float)
        states = [x]
        for _ in range(steps):
            x = np.asarray(a_tilde) @ x
            states.append(x)
        states = np.array(states)
        outputs = states @ np.asarray(sys_.c).T
        inputs = None if k is None else states @ np.asarray(k).T
    table = np.hstack([t for t in (states, inputs, outputs) if t is not None])
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    return states, inputs, outputs, int(bad[0]) if bad.size else None


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def simulate_cases():
    ex1 = load_problem(str(Path(__file__).parent / "fixtures" / "ex1.json"))
    ex1_loop = ex1.system.a + ex1.system.b @ ex1.gain.k
    angle = 1.0  # an irrational turn: the state never repeats
    turn = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    plain = SystemSpec(a=np.eye(3), b=None, c=[[1.0, -2.0, 0.5]], tau0=[0.3, -0.7, 1.1],
                       epsilon=1.0)
    zero = SystemSpec(a=np.eye(2), b=None, c=[[1.0, 1.0]], tau0=[0.0, 0.0], epsilon=1.0)
    return {
        # subnormal states from about step 6716, a rounding fixed point from 7042
        "ex1": (ex1.system, ex1_loop, ex1.gain.k, 0.7, [0.2, -0.3], 8000, True),
        "nilpotent": (plain, np.triu(np.full((3, 3), 0.9), 1), None, 1.0, [0.2, 0.1, -0.4],
                      300, True),
        "signed zero": (zero, 0.5 * np.eye(2), None, -1.0, [-0.0, -0.0], 200, True),
        # x1 is fixed from the start while (x2, x3) turns
        "rotation": (plain, np.block([[np.ones((1, 1)), np.zeros((1, 2))],
                                      [np.zeros((2, 1)), np.array(turn)]]),
                     None, 1.0, [0.0, 0.0, 0.0], 3000, False),
        "overflow": (plain, np.diag([2.0, 0.5, 1.0]), None, 1e300, [0.0, 0.0, 0.0], 2000,
                     None),
    }


@pytest.mark.parametrize("name", list(simulate_cases()))
def test_simulate_matches_plain_steps_bit_for_bit(name):
    # simulate stops stepping once a state maps to its own bits; the arrays
    # must still equal, bit for bit, those of stepping every time
    sys_, a_tilde, k, alpha, beta, steps, settles = simulate_cases()[name]
    states, inputs, outputs, bad = stepped(sys_, a_tilde, k, alpha, beta, steps)
    gain = None if k is None else Gain(k)
    if bad is not None:
        with pytest.raises(OverflowError, match=f"trajectory left .* at step {bad}$"):
            simulate(sys_, gain, a_tilde=a_tilde, alpha=alpha, beta=beta, steps=steps)
        return
    traj = simulate(sys_, gain, a_tilde=a_tilde, alpha=alpha, beta=beta, steps=steps)
    assert same_bits(traj.states, states)
    assert same_bits(traj.outputs, outputs)
    assert (traj.inputs is None) == (k is None)
    if k is not None:
        assert same_bits(traj.inputs, inputs)
    # the case reaches a fixed point long before its last step, or never does
    assert same_bits(states[-1], states[-2 - gaincap.capacity.SETTLE_STRIDE]) == settles


def test_membership_frozen():
    cap = determine(two_state(), two_state_gain())
    assert membership(cap, [0.3, 0.5]).member
    assert membership(cap, [0.0, 0.0]).member
    res = membership(cap, [2.0, 2.0])
    assert not res.member
    assert res.violation.step == 0 and res.violation.constraint == 1
    assert res.violation.magnitude == pytest.approx(4.0)
    with pytest.raises(ValueError, match="length"):
        membership(cap, [1.0, 2.0, 3.0])


def test_membership_first_violation_ordering():
    cap = determine(two_state(), a_tilde=[[0.9, 0.0], [0.99, 0.6]])
    res = membership(cap, [1.0, 0.0])
    assert not res.member
    assert res.violation.step == 1
    assert res.violation.magnitude == pytest.approx(1.89)
    # mirrored point violates the negative side of the same row
    mirrored = membership(cap, [-1.0, 0.0])
    assert mirrored.violation.step == 1
    assert mirrored.violation.constraint == 2


def test_membership_uncertified_on_iteration_limit():
    cap = determine(two_state(), two_state_gain(), max_iter=1)
    assert cap.status == ITERATION_LIMIT
    res = membership(cap, [0.0, 0.0])
    assert res.member and not res.certified


def test_check_gain_admissible():
    report = check_gain(two_state(), two_state_gain())
    assert report.admissible
    assert report.alpha_tolerable
    assert report.beta_violations == ()
    assert report.capacity.status == DETERMINED


def test_check_gain_offset_sensitive():
    report = check_gain(two_state(), a_tilde=[[0.9, 0.0], [0.99, 0.6]])
    assert not report.admissible
    assert report.alpha_tolerable
    (bv,) = report.beta_violations
    assert bv.index == 1
    assert bv.first_violation_step == 1
    assert bv.magnitude == pytest.approx(1.89)


def test_check_gain_matches_membership():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a_tilde = rng.normal(size=(n, n)) / n
        sys_ = SystemSpec(a_tilde, None, rng.normal(size=(2, n)), rng.normal(size=n), 0.8)
        report = check_gain(sys_, a_tilde=a_tilde)
        alpha = membership(report.capacity, sys_.tau0)
        assert report.alpha_violation == alpha.violation
        betas = [membership(report.capacity, e).violation for e in np.eye(n)]
        got = [(bv.index, bv.first_violation_step, bv.magnitude) for bv in report.beta_violations]
        expected = [(j, v.step, v.magnitude) for j, v in enumerate(betas, 1) if v is not None]
        assert got == expected


def first_violation_by_scan(cap, x):
    """The first entry of ``rows @ x`` beyond the band, scanned in order."""
    for i, value in enumerate(cap.constraint_rows @ x):
        if abs(value) > cap.epsilon * (1.0 + gaincap.capacity.MEMBERSHIP_TOL):
            step, j = divmod(i, cap.output_dim)
            return Violation(step, 2 * j + 1 if value > 0 else 2 * j + 2, float(abs(value)))
    return None


def test_check_gain_first_violations_match_membership():
    # check_gain finds the first violation of tau0 and of every e_j in one
    # pass; each is membership's, and a scan's, for that state: on
    # determined and iteration-limited sets, with a zero output row, with
    # first violations on negative products, and with products planted
    # exactly at epsilon * (1 + MEMBERSHIP_TOL), which stay inside; a caller-built
    # set without rows breaks nothing
    rng = np.random.default_rng(41)
    seen = set()
    for trial in range(50):
        n, p = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        a_tilde = rng.standard_normal((n, n))
        a_tilde *= rng.uniform(0.5, 0.95) / np.abs(np.linalg.eigvals(a_tilde)).max()
        c, tau0 = rng.standard_normal((p, n)), rng.standard_normal(n)
        epsilon = float(rng.uniform(0.5, 1.5))
        if trial % 3 == 1:
            c[-1] = 0.0
        elif trial % 3 == 2:
            # row 0 at step 0 maps tau0 and e_2 to exactly epsilon * (1 + tol)
            c[0] = 0.0
            c[0, 0], c[0, 1] = 1.0, epsilon * (1.0 + gaincap.capacity.MEMBERSHIP_TOL)
            tau0[:2] = c[0, 1], 0.0
        sys_ = SystemSpec(a_tilde, None, c, tau0, epsilon)
        report = check_gain(sys_, a_tilde=a_tilde, max_iter=int(rng.choice([1, 2, 3, 200])))
        cap = report.capacity
        found = [membership(cap, x).violation for x in [tau0, *np.eye(n)]]
        assert found == [first_violation_by_scan(cap, x) for x in [tau0, *np.eye(n)]]
        assert report.alpha_violation == found[0]
        assert report.beta_violations == tuple(
            BetaViolation(j, v.step, v.magnitude) for j, v in enumerate(found[1:], 1) if v
        )
        if trial % 3 == 2:
            assert cap.constraint_rows[0] @ tau0 == cap.constraint_rows[0, 1] == c[0, 1]
            assert all(v is None or (v.step, v.constraint) != (0, 1) for v in found[:3:2])
        seen.add(cap.status)
        seen.update("negative" for v in found if v and v.constraint % 2 == 0)
    assert seen == {DETERMINED, ITERATION_LIMIT, "negative"}
    empty = dataclasses.replace(cap, constraint_rows=np.zeros((0, n)))
    assert membership(empty, tau0) == MembershipResult(True, cap.status == DETERMINED, None)


def test_check_gain_nominal_state_outside():
    sys7 = SystemSpec(
        a=[[0.9, 0.0], [0.6, 0.3]],
        b=[[-1.5, 2.0], [1.0, -3.0]],
        c=[[1.0, 1.0]],
        tau0=[0.6, 1.0],
        epsilon=ROOT2,
    )
    report = check_gain(sys7, a_tilde=[[1.0, 0.0], [0.5, -0.1]])
    assert not report.admissible
    assert not report.alpha_tolerable
    assert report.alpha_violation.magnitude == pytest.approx(1.6)


def test_check_gain_zero_output_map():
    sys0 = SystemSpec(
        a=[[0.9, 0.0], [0.6, 0.3]],
        b=[[-1.5, 2.0], [1.0, -3.0]],
        c=[[0.0, 0.0]],
        tau0=[0.3, 0.5],
        epsilon=1.0,
    )
    report = check_gain(sys0, two_state_gain())
    assert report.admissible


def test_analyze_frozen():
    rep = analyze(two_state(), two_state_gain())
    assert rep.controllable and rep.observable
    assert rep.spectral_radius == pytest.approx(0.9)
    assert rep.inf_norm == pytest.approx(0.9)
    assert rep.norm_guarantee and rep.structural_guarantee
    assert rep.decay_index == 1


def test_analyze_marginal_loop():
    sys4 = SystemSpec(
        [[1.0, -2.0], [0.2, 7.0]], [[-1.0, -1.0], [1.0, 2.0]], [[-0.9, 1.9]], [0.3, 0.5], 0.2
    )
    rep = analyze(sys4, a_tilde=[[-1.0, 0.0], [-0.2, 1.0]])
    assert rep.spectral_radius == pytest.approx(1.0)
    assert not rep.structural_guarantee
    assert rep.decay_index is None


def test_analyze_zero_system():
    sys0 = SystemSpec([[0.0]], [[0.0]], [[0.0]], [0.0], 1.0)
    rep = analyze(sys0, Gain([[0.0]]))
    assert rep.controllable is False
    assert rep.observable is False
    assert rep.spectral_radius == pytest.approx(0.0)
    assert rep.decay_index == 0


def test_analyze_without_input_map():
    sys_ = SystemSpec(
        a=[[0.9, 0.0], [0.6, 0.3]], b=None, c=[[1.0, 1.0]], tau0=[0.3, 0.5],
        epsilon=ROOT2,
    )
    rep = analyze(sys_, a_tilde=[[0.9, 0.0], [0.2, 0.1]])
    assert rep.controllable is None
    assert not rep.structural_guarantee  # cannot be certified without b
    assert rep.observable
    # two outputs: C and the first row of C A~ miss e3, the second row of
    # C A~ is e3, so the rank must be taken over all n blocks of p rows
    shift = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    sys3 = SystemSpec(shift, None, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0] * 3, 1.0)
    assert analyze(sys3, a_tilde=shift).observable


def test_analyze_decay_index_matches_block_loop():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a_tilde = rng.normal(size=(n, n))
        a_tilde *= rng.uniform(0.5, 0.95) / np.max(np.abs(np.linalg.eigvals(a_tilde)))
        sys_ = SystemSpec(a_tilde, None, rng.normal(size=(2, n)), np.zeros(n), 0.5)
        rep = analyze(sys_, a_tilde=a_tilde)
        # reference: scan the blocks C A~^i from the horizon backwards
        horizon = 4 * n
        blocks = [sys_.c @ np.linalg.matrix_power(a_tilde, i) for i in range(horizon + 1)]
        expected = None
        for i in range(horizon, -1, -1):
            if np.max(np.sum(np.abs(blocks[i]), axis=1)) > sys_.epsilon:
                break
            expected = i
        assert rep.decay_index == expected


def test_analyze_large_loop_matches_numpy():
    rng = np.random.default_rng(40)
    q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    a_tilde = 0.97 * q
    sys40 = SystemSpec(a_tilde, None, rng.normal(size=(2, 40)), np.zeros(40), 1.0)
    rep = analyze(sys40, a_tilde=a_tilde)
    expected = float(np.max(np.abs(np.linalg.eigvals(a_tilde))))
    assert rep.spectral_radius == pytest.approx(expected, rel=1e-12)
    assert rep.observable


def test_analyze_horizon_validation():
    with pytest.raises(ValueError, match="horizon"):
        analyze(two_state(), two_state_gain(), horizon=1)


def test_count_arguments_refuse_bools_and_fractions():
    sys_, gain = two_state(), two_state_gain()
    cap = determine(sys_, gain)
    calls = [
        ("max_iter", lambda v: determine(sys_, gain, max_iter=v).history),
        ("steps", lambda v: simulate(sys_, gain, alpha=1.0, beta=[0.0, 0.0], steps=v).states),
        ("horizon", lambda v: analyze(sys_, gain, horizon=v).decay_index),
        ("horizon", lambda v: sensitivity_rows(sys_, cap.a_tilde, v)),
        ("grid", lambda v: region_sample(cap, (-1.0, 1.0), (-1.0, 1.0), v)),
        ("objective_step", lambda v: stop_test(cap, v)),
    ]
    for name, call in calls:
        for bad in (2.5, 3.0, np.float64(3.0), True, np.True_):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                call(bad)
        # numpy integers still count, as the int they hold
        got, want = call(np.int64(3)), call(3)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_simulate_frozen_step():
    traj = simulate(two_state(), two_state_gain(), alpha=1.0, beta=[0.0, 0.0], steps=1)
    assert np.allclose(traj.states[0], [0.3, 0.5])
    assert np.allclose(traj.states[1], [0.27, 0.11])
    assert traj.outputs[1, 0] == pytest.approx(0.38)
    assert traj.inputs.shape == (2, 2)


def test_simulate_zero_disturbance():
    traj = simulate(two_state(), two_state_gain(), alpha=0.0, beta=[0.0, 0.0], steps=3)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.outputs == 0.0)


def test_simulate_linearity():
    sys_ = two_state()
    gain = two_state_gain()
    rng = np.random.default_rng(31)
    for _ in range(10):
        a1, a2 = rng.normal(size=2)
        b1, b2 = rng.normal(size=(2, 2))
        t1 = simulate(sys_, gain, alpha=a1, beta=b1, steps=6)
        t2 = simulate(sys_, gain, alpha=a2, beta=b2, steps=6)
        t12 = simulate(sys_, gain, alpha=a1 + a2, beta=b1 + b2, steps=6)
        assert np.allclose(t12.states, t1.states + t2.states, atol=1e-12)
        assert np.allclose(t12.outputs, t1.outputs + t2.outputs, atol=1e-12)


def test_simulate_without_gain_has_no_inputs():
    traj = simulate(two_state(), a_tilde=[[0.9, 0.0], [0.2, 0.1]], alpha=1.0,
                    beta=[0.1, -0.1], steps=2)
    assert traj.inputs is None
    assert traj.states.shape == (3, 2)


def test_simulate_rejects_non_finite_alpha():
    for alpha in (math.nan, math.inf, "1", None, [1], True, 10**400):
        with pytest.raises(ValueError, match="^alpha must be a finite number$"):
            simulate(two_state(), two_state_gain(), alpha=alpha, beta=[0.0, 0.0], steps=2)


def test_region_sample_orientation():
    cap = determine(two_state(), two_state_gain())
    raster = region_sample(cap, (-2.0, 2.0), (-2.0, 2.0), 3)
    assert raster.shape == (3, 3)
    assert raster[1, 1]  # origin
    assert not raster[2, 2]  # (2, 2): first row gives |x + y| = 4
    # a tall thin window separates the axes: the middle raster row (y = 0)
    # stays inside while the middle column (x = 0, y = +-3) leaves the band
    tall = region_sample(cap, (-0.2, 0.2), (-3.0, 3.0), 3)
    assert tall[1].all()
    assert not tall[0, 1] and not tall[2, 1]


def test_region_sample_symmetry():
    cap = determine(two_state(), two_state_gain())
    raster = region_sample(cap, (-1.5, 1.5), (-1.5, 1.5), 21)
    assert np.array_equal(raster, raster[::-1, ::-1])


def test_region_sample_validation():
    cap = determine(two_state(), two_state_gain())
    with pytest.raises(ValueError, match="grid"):
        region_sample(cap, (-1.0, 1.0), (-1.0, 1.0), 1)
    with pytest.raises(ValueError, match="nonempty"):
        region_sample(cap, (1.0, -1.0), (-1.0, 1.0), 3)
    # an infinite bound would sample NaN points and drop even the origin
    for x_range, y_range in (((0.0, math.inf), (0.0, 1.0)), ((-1.0, 1.0), (math.nan, 1.0))):
        with pytest.raises(ValueError, match="finite"):
            region_sample(cap, x_range, y_range, 3)
    # so would a width past the float range, with unsorted xs
    for x_range, y_range in (((-1e308, 1e308), (0.0, 1.0)), ((-1.0, 1.0), (-1e308, 1e308))):
        with pytest.raises(ValueError, match="floating-point range"):
            region_sample(cap, x_range, y_range, 3)
    sys5 = SystemSpec(np.eye(3) * 0.5, None, [[1.0, 0.0, 0.0]], [0.0, 0.0, 0.0], 1.0)
    cap5 = determine(sys5, a_tilde=np.eye(3) * 0.5)
    with pytest.raises(ValueError, match="two-state"):
        region_sample(cap5, (-1.0, 1.0), (-1.0, 1.0), 3)


def fixture_capacity(name):
    problem = load_problem(str(Path(__file__).parent / "fixtures" / f"{name}.json"))
    loop = {"a_tilde": problem.a_tilde} if problem.gain is None else {}
    return determine(problem.system, problem.gain, **loop, stop_tol=problem.options.stop_tol)


TWO_STATE_FIXTURES = [f"ex{i}" for i in (1, 2, 3, 4, 6, 7, 8, 10)]


def region_reference(rows, epsilon, x_range, y_range, grid):
    """The raster as the full grid of points times the rows, cell by cell.
    The rows of points go through the product a block at a time, so large
    grids stay small in memory; each raster row is still one product of
    ``grid`` points, as in a single product over the whole grid."""
    xs = np.linspace(*x_range, grid)
    ys = np.linspace(*y_range, grid)
    raster = np.empty((grid, grid), dtype=bool)
    for start in range(0, grid, 64):
        pts = np.stack(np.meshgrid(xs, ys[start : start + 64]), axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.abs(pts @ rows.T)
        raster[start : start + 64] = np.all(values <= epsilon + 1e-12, axis=-1)
    return raster


def assert_region_exact(cap, x_range, y_range, grid):
    raster = region_sample(cap, x_range, y_range, grid)
    expected = region_reference(cap.constraint_rows, cap.epsilon, x_range, y_range, grid)
    assert np.array_equal(raster, expected), (x_range, y_range, grid)
    # each row is one run of inside cells: at most one rise and one fall
    edges = np.diff(raster.astype(np.int8), axis=1, prepend=0, append=0)
    assert ((edges == 1).sum(axis=1) <= 1).all() and ((edges == -1).sum(axis=1) <= 1).all()
    return raster


@pytest.mark.parametrize("name", TWO_STATE_FIXTURES)
def test_region_sample_matches_full_grid(name):
    cap = fixture_capacity(name)
    rng = np.random.default_rng(int(name[2:]))
    for grid in (2, 3, 7, 50, 401, 1001):
        for _ in range(2 if grid == 1001 else 5):
            # windows from a tenth of the set's size to thirty times it,
            # anywhere from around the origin to well off it
            scale = 10.0 ** rng.uniform(-1.0, 1.5)
            center = rng.normal(0.0, scale, 2)
            half = rng.uniform(0.1, 2.0, 2) * scale
            assert_region_exact(
                cap, (center[0] - half[0], center[0] + half[0]),
                (center[1] - half[1], center[1] + half[1]), grid,
            )


def test_region_sample_matches_full_grid_on_edge_sets():
    base = fixture_capacity("ex6")
    rng = np.random.default_rng(23)

    def with_rows(rows):
        return dataclasses.replace(base, constraint_rows=np.array(rows, dtype=float))

    rows = base.constraint_rows.copy()
    zero_x = rows.copy()
    zero_x[2, 0] = 0.0
    tiny_x = rows.copy()
    tiny_x[3, 0] = 1e-18
    nan_row = rows.copy()
    nan_row[1] = np.nan
    sets = [with_rows(zero_x), with_rows(tiny_x), with_rows(nan_row), with_rows(rows[:1]),
            with_rows([[0.0, 1.0]]), with_rows([[1.0, 0.0]])]
    for cap in sets:
        for grid in (2, 3, 7, 50, 401):
            for _ in range(3):
                center = rng.normal(0.0, 1.0, 2)
                half = rng.uniform(0.2, 3.0, 2)
                assert_region_exact(
                    cap, (center[0] - half[0], center[0] + half[0]),
                    (center[1] - half[1], center[1] + half[1]), grid,
                )
    # a window away from the set is empty, one inside it full
    assert not assert_region_exact(base, (40.0, 41.0), (-0.5, 0.5), 50).any()
    assert not assert_region_exact(base, (-0.5, 0.5), (60.0, 70.0), 50).any()
    assert assert_region_exact(base, (-0.1, 0.1), (-0.1, 0.1), 50).all()


def test_region_rows_evaluated_cell_by_cell_match_full_grid(monkeypatch):
    # rows the cells beside the estimated ends leave unsettled are evaluated
    # cell by cell; force every row there, with empty estimated runs
    def unsettled(rows, bound, xs, ys):
        empty = np.zeros(len(ys), dtype=int)
        return empty, empty, np.zeros(len(ys), dtype=bool)

    monkeypatch.setattr(gaincap.capacity, "_row_runs", unsettled)
    rng = np.random.default_rng(29)
    for name in ("ex1", "ex6"):
        cap = fixture_capacity(name)
        for grid in (2, 7, 50):
            for _ in range(3):
                center = rng.normal(0.0, 0.5, 2)
                half = rng.uniform(0.2, 3.0, 2)
                assert_region_exact(
                    cap, (center[0] - half[0], center[0] + half[0]),
                    (center[1] - half[1], center[1] + half[1]), grid,
                )


def test_region_sample_memory():
    # the raster of a convex set is one run per row, so the peak is a few
    # booleans per cell; the full product of the grid and the rows would
    # hold over a hundred bytes per cell on ex6's six rows
    cap = fixture_capacity("ex6")
    tracemalloc.start()
    try:
        region_sample(cap, (-2.0, 2.0), (-2.0, 2.0), 601)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 601**2


def test_stop_test_persists_after_determination():
    cap = determine(two_state(), two_state_gain())
    for extra in range(1, 6):
        stopped, values = stop_test(cap, cap.k0 + extra)
        assert stopped
        assert all(v <= cap.epsilon + 1e-9 for v in values)


def scaled_rank(rows):
    """Numerical rank of ``rows`` with each nonzero row scaled to max-abs 1."""
    scale = np.abs(rows).max(axis=1, keepdims=True)
    return np.linalg.matrix_rank(rows / np.where(scale == 0.0, 1.0, scale))


@pytest.mark.parametrize("name", [f"ex{i}" for i in range(1, 11)])
def test_one_lp_per_output_row(name, monkeypatch):
    # the band polyhedron is centrally symmetric, so each output row is
    # maximized at most once and +row and -row record the same value; a row
    # outside the row space of the stack is unbounded without a solve, and
    # every other row is solved
    problem = load_problem(str(Path(__file__).parent / "fixtures" / f"{name}.json"))
    original = gaincap.lp.Band.maximize
    calls = {}

    def counting_maximize(band, objective, scaled):
        # the band's height names the step
        calls.setdefault(band.size, []).append(objective.tobytes())
        return original(band, objective, scaled)

    monkeypatch.setattr(gaincap.lp.Band, "maximize", counting_maximize)
    loop = {"a_tilde": problem.a_tilde} if problem.gain is None else {}
    cap = determine(
        problem.system, problem.gain, **loop,
        max_iter=40, stop_tol=problem.options.stop_tol,
    )
    p = problem.system.p
    rows = sensitivity_rows(problem.system, cap.a_tilde, len(cap.history))
    for record in cap.history:
        assert len(record.values) == 2 * p
        assert record.values[0::2] == record.values[1::2]
        stack = rows[: p * (record.step + 1)]
        objective = rows[p * (record.step + 1) : p * (record.step + 2)]
        unsolved = {j: row.tobytes() for j, row in enumerate(objective)}
        for solved in calls.pop(stack.shape[0], []):
            del unsolved[next(j for j, row in unsolved.items() if row == solved)]
        for j in unsolved:
            assert record.values[2 * j] == math.inf
            assert scaled_rank(np.vstack([stack, objective[j]])) > scaled_rank(stack)
    assert not calls


def rank_test_loops(seed, count):
    """Loops with p < n whose stacks stay below full rank for several steps,
    each as its system; a_tilde is ``system.a``."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        kind = trial % 4
        n = int(rng.integers(3, 7))
        p = 2 if kind == 1 else int(rng.integers(1, n))
        # the rest are unobservable modes; a nearly dependent pair of rows
        # spans the whole observable space, so its rows are not unbounded
        observed = 2 if kind == 1 else int(rng.integers(1, n + 1))
        a = 0.5 * rng.standard_normal((n, n))
        a[:observed, observed:] = 0.0
        a *= 0.97 / np.abs(np.linalg.eigvals(a)).max()
        c = np.zeros((p, n))
        c[:, :observed] = rng.standard_normal((p, observed))
        if kind == 1:
            c[1] = c[0] + 1e-7 * rng.standard_normal(n) * (c[0] != 0.0)
        elif kind == 2:
            c[-1] *= 1e-300
        elif kind == 3 and p >= 2:
            c[-1] = 0.0
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        yield SystemSpec(q @ a @ q.T, None, c @ q.T, np.zeros(n), float(rng.uniform(0.5, 2.0)))


def assert_matches_the_primal(sys_, cap):
    """Every recorded maximum, skipped or solved, is bit for bit that of a
    fresh band over that step's stack, inf exactly where the cold primal is
    unbounded, and within 1e-9 of its maximum elsewhere; returns the
    skipped and the finite maxima below full rank."""
    p, n = sys_.p, sys_.n
    rows = sensitivity_rows(sys_, cap.a_tilde, len(cap.history))
    skipped = finite = 0
    for record in cap.history:
        stack = rows[: p * (record.step + 1)]
        block = rows[p * (record.step + 1) : p * (record.step + 2)]
        fresh = list(gaincap.lp.Band(stack, sys_.epsilon).maxima(block))
        assert np.array(record.values).tobytes() == np.repeat(fresh, 2).tobytes()
        for value, row in zip(record.values[0::2], block):
            outcome = gaincap.lp.maximize(row, stack, sys_.epsilon)
            if outcome.status == gaincap.lp.UNBOUNDED:
                assert value == math.inf
            else:
                assert value == pytest.approx(outcome.value, rel=1e-9, abs=0.0)
        if np.linalg.matrix_rank(stack) < n:
            finite += int(np.isfinite(record.values[0::2]).sum())
            skipped += int(np.isinf(record.values[0::2]).sum())
    return skipped, finite


def test_rank_test_matches_the_primal():
    # on loops whose stacks stay below full rank for several steps, rows
    # are both skipped and solved to a finite maximum at each seed
    for seed in (31, 47, 53):
        seen = np.zeros(2, dtype=int)
        for sys_ in rank_test_loops(seed, 40):
            seen += assert_matches_the_primal(sys_, determine(sys_, a_tilde=sys_.a, max_iter=30))
        assert seen.min() > 0, (seed, seen)


def test_determination_calls_no_linalg_routine(monkeypatch):
    # the band grows its row space by Gram-Schmidt: no SVD, QR, rank,
    # eigenvalue or least-squares routine runs in determine, stop_test or
    # check_gain, below full rank or at it.  The one routine let through is
    # the inverse of a square band of n rows at rank n, once per band
    systems = list(rank_test_loops(31, 8))
    inverted = []

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")

    def counted_inv(g, _inv=np.linalg.inv):
        assert g.ndim == 2 and g.shape[0] == g.shape[1], g.shape
        inverted.append(g.shape)
        return _inv(g)

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    for sys_ in systems:
        cap = determine(sys_, a_tilde=sys_.a, max_iter=30)
        stop_test(cap, len(cap.history))
        check_gain(sys_, a_tilde=sys_.a, max_iter=30)
    # determine, stop_test and check_gain each carry one band, square at
    # one step at most, and some of these loops reach it
    assert 0 < len(inverted) <= 3 * len(systems)


def test_inputs_are_checked_once_where_they_enter(monkeypatch):
    # SystemSpec and Gain check their arrays; analyze, check_gain and the
    # linalg helpers below them take those arrays as they are
    sys_, gain = two_state(), two_state_gain()
    checked = []
    for module in (gaincap.capacity, gaincap.linalg):
        for name in ("as_matrix", "as_vector"):
            def counted(*args, _check=getattr(module, name), **kwargs):
                checked.append(args)
                return _check(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    analyze(sys_, gain)
    check_gain(sys_, gain)
    assert checked == []
    # a raw a_tilde is checked once, where it enters
    raw = [[0.9, 0.0], [0.2, 0.1]]
    for run in (analyze, check_gain):
        checked.clear()
        run(sys_, a_tilde=raw)
        assert len(checked) == 1


def test_ratio_past_the_float_range_never_blocks():
    # loop 114 of seed 2 has a band row of scale near 1e-300, whose scaled
    # bound near 1e300 over a small pivot-column entry overflows the ratio
    # test; that ratio is inf without a warning, and a finite one blocks
    sys_ = next(itertools.islice(rank_test_loops(2, 115), 114, None))
    cap = determine(sys_, a_tilde=sys_.a, max_iter=30)
    assert (cap.status, cap.k0) == (DETERMINED, 16)
    assert_matches_the_primal(sys_, cap)


def test_determine_pivot_count_tripwire(monkeypatch):
    # a slow-converging loop rho * Q (Q orthogonal) stops at k0 = 47 after
    # 48 steps of 2 rows each; the 6 rows outside the row space of the first
    # 3 stacks are unbounded without a solve, leaving 90 LPs, of which step
    # 3's 2, over 8 rows of rank 8, take the closed form and 0 pivots.  The pinned
    # pivot total catches a change of pricing rule, ratio test, warm start
    # or tableau arithmetic that the k0 alone would not show
    rng = np.random.default_rng(0)
    q, r = np.linalg.qr(rng.standard_normal((8, 8)))
    a_tilde = 0.99 * q * np.sign(np.diag(r))
    c = rng.standard_normal((2, 8))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    original = gaincap.lp.Band.maximize
    pivots = []

    def counting_maximize(band, objective, scaled):
        outcome = original(band, objective, scaled)
        pivots.append(outcome.pivots)
        return outcome

    monkeypatch.setattr(gaincap.lp.Band, "maximize", counting_maximize)
    cap = determine(SystemSpec(a_tilde, None, c, np.zeros(8), 0.3), a_tilde=a_tilde)
    assert (cap.k0, cap.status, len(pivots)) == (47, DETERMINED, 90)
    assert sum(pivots) == 1160


def test_budget_error_on_a_warm_row_names_its_constraint(monkeypatch):
    # the LPs of a block after its first start from the vertex the one
    # before left; a budget error there still stops the step at that row,
    # constraint 2j+1.  On the tripwire's loop the first 3 steps skip both
    # rows and step 3's band of 8 rows at rank 8 needs no simplex, so step
    # 4's second row is the first that starts warm
    rng = np.random.default_rng(0)
    q, r = np.linalg.qr(rng.standard_normal((8, 8)))
    a_tilde = 0.99 * q * np.sign(np.diag(r))
    c = rng.standard_normal((2, 8))

    def exhausted(*args):
        raise gaincap.lp.SimplexBudgetError("pivot budget of 0 exhausted")

    monkeypatch.setattr(gaincap.lp, "_reprice", exhausted)
    with pytest.raises(DeterminationError, match="LP solver gave up: pivot budget") as err:
        determine(SystemSpec(a_tilde, None, c, np.zeros(8), 0.3), a_tilde=a_tilde)
    assert (err.value.step, err.value.constraint) == (4, 3)


def test_constraint_rows_own_their_bytes():
    # the rows are one fresh array when the search stops and at its limit,
    # never a view into a larger buffer that each kept verdict would hold
    rng = np.random.default_rng(0)
    q, r = np.linalg.qr(rng.standard_normal((8, 8)))
    a_tilde = 0.99 * q * np.sign(np.diag(r))
    sys_ = SystemSpec(a_tilde, None, rng.standard_normal((2, 8)), np.zeros(8), 0.3)
    for max_iter, status, steps in ((200, DETERMINED, None), (9, ITERATION_LIMIT, 9)):
        cap = determine(sys_, a_tilde=a_tilde, max_iter=max_iter)
        rows = cap.constraint_rows
        assert cap.status == status
        assert rows.shape == (2 * (steps or cap.k0 + 1), 8)
        assert rows.base is None
        assert rows.nbytes == rows.shape[0] * 8 * 8


def test_advance_overflow_wins_over_an_unscalable_band_row():
    # block 1 holds a row of subnormal scale, which the band cannot scale
    # against epsilon, and a row that overflows one step later; step 1
    # stops at the overflowing row's constraint 3, not at constraint 1
    a_tilde = [[0.0, 0.0, 1e-309], [0.0, 0.0, 1e300], [0.0, 0.0, 1e10]]
    sys_ = SystemSpec(a_tilde, None, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.1] * 3, 1.0)
    with pytest.raises(DeterminationError, match="output row 2 overflowed") as err:
        determine(sys_, a_tilde=a_tilde)
    assert (err.value.step, err.value.constraint) == (1, 3)
    a_tilde[2][2] = 1.0
    with pytest.raises(DeterminationError, match="band row's scale") as err:
        determine(sys_, a_tilde=a_tilde)
    assert (err.value.step, err.value.constraint) == (1, 1)


def test_stop_test_rejects_negative_band():
    cap = determine(two_state(), two_state_gain())
    for epsilon in (-0.5, math.nan, math.inf, "1.0", None, True, 10**400):
        with pytest.raises(ValueError, match="origin is the start vertex"):
            stop_test(dataclasses.replace(cap, epsilon=epsilon), 1)
    # a caller-built set is checked before its first row is advanced
    for bad in (math.nan, math.inf):
        for index in ((0, 1), (-1, 0)):
            rows = np.array(cap.constraint_rows)
            rows[index] = bad
            for objective_step in (0, 2):
                with pytest.raises(ValueError, match="constraint rows"):
                    stop_test(dataclasses.replace(cap, constraint_rows=rows), objective_step)


NON_MATRICES = ([["1", "0"], ["0", "1"]], [[{}, 0.0], [0.0, 1.0]], [[10**400, 0.0], [0.0, 1.0]],
                [[1j, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0]], [[True, False], [False, True]],
                [[True, 1]])
NON_VECTORS = (["0.3", "0.5"], [{}, 0.5], [10**400, 0.5], [1j, 0.5], [0.3, [0.5]], [True, 0.5])


def test_plant_data_refuses_non_numbers_with_value_error():
    # a string entry used to pass as the number it spells, a dict raised
    # TypeError and an int past the float range OverflowError
    sys_ = two_state()
    cap = determine(sys_, two_state_gain())
    for bad in NON_MATRICES:
        for field in ("a", "b", "c"):
            with pytest.raises(ValueError, match=f"^{field} "):
                SystemSpec(**{**dataclasses.asdict(sys_), field: bad})
        with pytest.raises(ValueError, match="^k "):
            Gain(bad)
    for bad in NON_VECTORS:
        with pytest.raises(ValueError, match="^tau0 "):
            SystemSpec(sys_.a, sys_.b, sys_.c, bad, 1.0)
        with pytest.raises(ValueError, match="^beta "):
            simulate(sys_, two_state_gain(), alpha=1.0, beta=bad, steps=2)
        with pytest.raises(ValueError, match="^x "):
            membership(cap, bad)


def test_caller_arguments_refuse_non_numbers_with_value_error():
    # region bounds went through float(), so ("-1", "1") was a window; a
    # caller-built set's rows are checked as plant data is
    cap = determine(two_state(), two_state_gain())
    for bad in ("-1", None, [1], True, np.True_, 10**400):
        with pytest.raises(ValueError, match="^x_range\\[0\\] must be a finite number$"):
            region_sample(cap, (bad, 1.0), (-1.0, 1.0), 5)
        with pytest.raises(ValueError, match="^y_range\\[1\\] must be a finite number$"):
            region_sample(cap, (-1.0, 1.0), (-1.0, bad), 5)
    for bad in NON_MATRICES:
        bad_set = dataclasses.replace(cap, constraint_rows=bad)
        for call in (lambda: membership(bad_set, [0.3, 0.5]), lambda: stop_test(bad_set, 1),
                     lambda: region_sample(bad_set, (-1.0, 1.0), (-1.0, 1.0), 5)):
            with pytest.raises(ValueError, match="^constraint rows "):
                call()


def test_membership_and_region_refuse_a_bad_epsilon():
    # a caller-built set's epsilon is checked where the set enters, as
    # stop_test's band checks it: a NaN band used to hold every point and an
    # infinite one every cell
    cap = determine(two_state(), two_state_gain())
    for epsilon in (-1.0, math.nan, math.inf, "1.0", None, True, 10**400):
        bad = dataclasses.replace(cap, epsilon=epsilon)
        with pytest.raises(ValueError, match="origin is the start vertex"):
            membership(bad, [100.0, 0.0])
        with pytest.raises(ValueError, match="origin is the start vertex"):
            region_sample(bad, (-1.0, 1.0), (-1.0, 1.0), 5)


def test_caller_built_set_needs_an_output_dim_that_divides_its_rows():
    # output_dim 0 made stop_test pass on no rows and membership divide by
    # zero; 1.5 named a step 0.0, and -1 or 5 tested the wrong rows
    cap = determine(two_state(), two_state_gain())
    cap = dataclasses.replace(cap, constraint_rows=np.array([[1.0, 1.0], [1.0, 0.0], [2.0, -1.0]]))
    for output_dim, message in (
        (0, "output_dim must be at least 1"),
        (-1, "output_dim must be at least 1"),
        (1.5, "output_dim must be an integer"),
        (True, "output_dim must be an integer"),
        (2, "output_dim 2 does not divide the 3 rows"),
        (5, "output_dim 5 does not divide the 3 rows"),
    ):
        bad = dataclasses.replace(cap, output_dim=output_dim)
        with pytest.raises(ValueError, match=message):
            stop_test(bad, 1)
        with pytest.raises(ValueError, match=message):
            membership(bad, [100.0, 0.0])
        with pytest.raises(ValueError, match=message):
            region_sample(bad, (-1.0, 1.0), (-1.0, 1.0), 5)
    good = dataclasses.replace(cap, output_dim=np.int64(3))
    assert membership(good, [100.0, 0.0]).violation == Violation(0, 1, 100.0)


def test_stop_test_takes_integer_and_nested_list_rows():
    # a caller-built set whose rows are an integer array or a nested list
    # stops as the same rows as floats do
    cap = determine(two_state(), a_tilde=[[0.5, 0.0], [-1.0, -0.4]], max_iter=2)
    rows = [[1, 1], [1, 0], [2, -1]]
    float_cap = dataclasses.replace(cap, constraint_rows=np.array(rows, dtype=float))
    for caller_rows in (np.array(rows), rows):
        other = dataclasses.replace(cap, constraint_rows=caller_rows)
        for objective_step in (0, 1, 3):
            assert stop_test(other, objective_step) == stop_test(float_cap, objective_step)


def test_caller_built_set_is_checked_where_it_enters():
    # stop_test checks a caller-built set's closed loop as determine checks
    # a raw a_tilde, before it advances a row; membership and region_sample
    # take nested-list rows as stop_test does, and refuse rows that are no
    # matrix
    cap = determine(two_state(), two_state_gain())
    for a_tilde, message in (
        (np.eye(3), "a_tilde must be 2x2, got 3x3"),
        ([[0.9, 0.0], [math.nan, 0.1]], "a_tilde contains non-finite entries"),
    ):
        with pytest.raises(ValueError, match=message):
            stop_test(dataclasses.replace(cap, a_tilde=a_tilde), 1)
    listed = dataclasses.replace(cap, constraint_rows=cap.constraint_rows.tolist())
    for x in ([0.3, 0.5], [1.2, -0.4], [0.0, 20.0]):
        assert membership(listed, x) == membership(cap, x)
    window = ((-3.0, 3.0), (-20.0, 20.0), 41)
    assert np.array_equal(region_sample(listed, *window), region_sample(cap, *window))
    flat = dataclasses.replace(cap, constraint_rows=[1.0, 1.0])
    with pytest.raises(ValueError, match="constraint rows must be a 2-D array"):
        membership(flat, [0.3, 0.5])
    with pytest.raises(ValueError, match="constraint rows must be a 2-D array"):
        region_sample(flat, *window)


def test_subnormal_band_row_stops_determination():
    # the row [0, 1e-309] of step 1 has a subnormal scale: epsilon over it is
    # inf, so no equilibrated tableau exists and step 1 cannot be decided
    a_tilde = [[0.0, 1e-309], [0.0, 1.0]]
    sys_ = SystemSpec(a_tilde, None, [[1.0, 0.0]], [0.1, 0.1], 1.0)
    with pytest.raises(DeterminationError, match="floating-point range") as err:
        determine(sys_, a_tilde=a_tilde)
    assert (err.value.step, err.value.constraint) == (1, 1)
    a_tilde[0][1] = 1e-300
    cap = determine(sys_, a_tilde=a_tilde)
    assert (cap.status, cap.k0) == (DETERMINED, 1)


def test_unscalable_band_row_stops_a_step_without_a_solve():
    # step 1's stack [e1; 1e-309 e2] has rank 2 of 3, and its one objective
    # row, 1e-309 e3, lies outside that row space; the band still cannot be
    # scaled, so step 1 stops before any row, at constraint 1
    a_tilde = [[0.0, 1e-309, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    sys_ = SystemSpec(a_tilde, None, [[1.0, 0.0, 0.0]], [0.1, 0.1, 0.1], 1.0)
    with pytest.raises(DeterminationError, match="floating-point range") as err:
        determine(sys_, a_tilde=a_tilde)
    assert (err.value.step, err.value.constraint) == (1, 1)


def test_membership_symmetry_and_midpoints():
    cap = determine(two_state(), two_state_gain())
    rng = np.random.default_rng(17)
    pts = rng.uniform(-2.0, 2.0, size=(200, 2))
    for x in pts:
        assert membership(cap, x).member == membership(cap, -x).member
    members = [x for x in pts if membership(cap, x).member]
    for i in range(0, len(members) - 1, 2):
        mid = 0.5 * (members[i] + members[i + 1])
        assert membership(cap, mid).member


def test_origin_interior_margin():
    cap = determine(two_state(), two_state_gain())
    delta = cap.epsilon / np.max(np.abs(cap.constraint_rows))
    for j in range(2):
        assert membership(cap, delta * np.eye(2)[j]).member


def test_scaling_invariance():
    base = two_state()
    cap = determine(base, two_state_gain())
    for factor in (3.0, 0.25):
        scaled_sys = SystemSpec(base.a, base.b, base.c, base.tau0, base.epsilon * factor)
        scaled = determine(scaled_sys, two_state_gain())
        assert scaled.k0 == cap.k0
        assert np.allclose(scaled.constraint_rows, cap.constraint_rows)
        rng = np.random.default_rng(5)
        for x in rng.uniform(-2.0, 2.0, size=(100, 2)):
            assert membership(cap, x).member == membership(scaled, factor * x).member


def test_nested_truncations():
    sys_ = two_state()
    shallow = determine(sys_, a_tilde=[[0.9, 0.0], [0.99, 0.6]], max_iter=3)
    deep = determine(sys_, a_tilde=[[0.9, 0.0], [0.99, 0.6]], max_iter=4)
    assert shallow.status == deep.status == ITERATION_LIMIT
    rng = np.random.default_rng(13)
    for x in rng.uniform(-2.0, 2.0, size=(200, 2)):
        if membership(deep, x).member:
            assert membership(shallow, x).member
