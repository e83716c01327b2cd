"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Criteria
1 and 2 compare computed determination indices against the reference tables
shipped with the project requirements.  Four of those entries (ex3, ex5,
ex9, ex10) cannot be reproduced, so the expected index of every entry comes
from an exact check at test time instead: the determination loop re-run
over the fixture decimals in rational arithmetic (``oracles``), which shares
no code with the library.  ex3, ex5 and ex10 stop at an exact tie, where the
largest maximum equals epsilon, one or two steps before the table says;
ex9's output rows grow like 2**k, so no finite index exists.  The tables
stay here unedited, and each disputed entry carries its exact verdict.  The
two tests after criterion 10 check the exact oracle against the float
polygon oracle.
"""

import json
import math
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gaincap.capacity import (
    DETERMINED,
    ITERATION_LIMIT,
    SystemSpec,
    check_gain,
    closed_loop,
    determine,
    membership,
    sensitivity_rows,
    simulate,
    stop_test,
)
from gaincap.cli import load_problem, main
from gaincap.linalg import induced_inf_norm
from gaincap.lp import OPTIMAL, UNBOUNDED, _simplex, maximize
from oracles import (
    admissible_horizon,
    exact_determination_index,
    exact_maximize,
    exact_step_maxima,
    growing_mode,
    polygon_maximize,
)

FIXTURES = Path(__file__).parent / "fixtures"
ALL_FIXTURES = ["ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7", "ex8", "ex9", "ex10"]

_cache: dict[str, tuple] = {}


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def capacity(name: str):
    """Problem + capacity set for a fixture, computed once per session."""
    if name not in _cache:
        problem = load_problem(fixture_path(name))
        opts = problem.options
        if problem.gain is not None:
            cap = determine(
                problem.system, problem.gain,
                max_iter=opts.max_iter, stop_tol=opts.stop_tol,
            )
        else:
            cap = determine(
                problem.system, a_tilde=problem.a_tilde,
                max_iter=opts.max_iter, stop_tol=opts.stop_tol,
            )
        _cache[name] = (problem, cap)
    return _cache[name]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except AssertionError:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    print(f"criterion {number:2d}: PASS  {description}")


def inside(stack: np.ndarray, epsilon: float, points: np.ndarray) -> np.ndarray:
    """Vectorized band membership for a (count, n) array of points."""
    return np.all(np.abs(points @ stack.T) <= epsilon + 1e-12, axis=1)


def sample_members(stack, epsilon, count, rng):
    """Random interior points: scale random directions back into the band."""
    n = stack.shape[1]
    d = rng.normal(size=(count, n))
    reach = np.max(np.abs(d @ stack.T), axis=1)
    reach = np.where(reach < 1e-300, 1.0, reach)
    t = rng.uniform(0.0, 1.0, size=count)
    return d * (epsilon * t / reach)[:, None]


# ------------------------------------------------------------------ 1 & 2

# The reference tables shipped with the project requirements, unedited.
TABLE_1 = {"ex2": 1, "ex3": 3, "ex4": 1, "ex5": 4}
TABLE_2 = {"ex6": 5, "ex7": 1, "ex8": 1, "ex9": 32, "ex10": 2}

# Entries that no reading of the stop test reproduces, each with the verdict
# of the exact check.  At a tie the largest maximum equals epsilon exactly:
# "at most epsilon" stops there, "below epsilon" has not stopped by the
# listed step, and on ex4, ex7 and ex8, also exact ties at k=1, the table
# takes the first reading.  ex9 has no index at all.
DISPUTED = {
    "ex3": "exact tie at k=1",
    "ex5": "exact tie at k=2",
    "ex9": "not finitely determined",
    "ex10": "exact tie at k=1",
}

# exact steps allowed before an index counts as unsettled
EXACT_LIMIT = 8


def exact_loop(name: str):
    """A fixture's ``C``, ``A_tilde`` and ``epsilon`` as exact decimals."""
    data = json.loads(Path(fixture_path(name)).read_text(), parse_float=Fraction)
    if "K" in data:
        # the program closes these loops itself, so A + B K must be A_tilde
        a, b, k, at = (
            np.array(data[key], dtype=object) for key in ("A", "B", "K", "A_tilde")
        )
        assert np.all(a + b @ k == at), f"{name}: A + B K differs from A_tilde"
    return data["C"], data["A_tilde"], data["epsilon"]


def exact_verdict(name: str) -> tuple[int | None, str]:
    """Exact determination index of a fixture (None if it has none), with
    its verdict."""
    c, at, eps = exact_loop(name)
    if growing_mode(c, at) is not None:
        # unbounded rows leave Theta no interior (uniform boundedness), but
        # every Theta_k holds a ball round the origin, so none is Theta
        return None, "not finitely determined"
    k0 = exact_determination_index(c, at, eps, EXACT_LIMIT)
    assert k0 is not None, f"{name}: not settled within {EXACT_LIMIT} exact steps"
    if max(exact_step_maxima(c, at, eps, k0)) == eps:
        return k0, f"exact tie at k={k0}"
    return k0, f"k={k0}"


def _index_mismatches(table: dict) -> list[str]:
    problems = []
    for name, listed in table.items():
        _, cap = capacity(name)
        k0, verdict = exact_verdict(name)
        got = cap.k0 if cap.status == DETERMINED else f"none ({cap.status})"
        want = k0 if k0 is not None else f"none ({ITERATION_LIMIT})"
        if got != want:
            problems.append(f"{name}: exact index {want}, computed {got}")
        if name not in DISPUTED:
            if listed != k0:
                problems.append(f"{name}: reference table says k0={listed}, exact {k0}")
            continue
        if DISPUTED[name] != verdict:
            problems.append(f"{name}: recorded {DISPUTED[name]!r}, exact {verdict!r}")
        strict = None
        if k0 is not None:
            # "below epsilon" cannot stop before "at most epsilon" does
            strict = exact_determination_index(
                *exact_loop(name), limit=listed + 1, strict=True
            )
        if listed in (k0, strict):
            problems.append(f"{name}: k0={listed} is reproduced, so not disputed")
    return problems


def test_criterion_1_table1_indices():
    with criterion(1, "determination indices, first reference table"):
        problems = _index_mismatches(TABLE_1)
        assert not problems, "; ".join(problems)


def test_criterion_2_table2_indices():
    with criterion(2, "determination indices, second reference table"):
        problems = _index_mismatches(TABLE_2)
        assert not problems, "; ".join(problems)


# ---------------------------------------------------------------------- 3


def oracle_determination_index(a_tilde, c, epsilon, limit=10):
    """Independent re-derivation of the index using the polygon oracle."""
    blocks = [np.asarray(c, dtype=float)]
    at = np.asarray(a_tilde, dtype=float)
    for k in range(limit):
        objective = blocks[-1] @ at
        stack = np.vstack(blocks)
        g = np.vstack([stack, -stack])
        h = np.full(g.shape[0], epsilon)
        values = []
        for row in objective:
            for sign in (1.0, -1.0):
                status, value = polygon_maximize(sign * row, g, h)
                values.append(math.inf if status == "unbounded" else value)
        if all(v <= epsilon + 1e-9 for v in values):
            return k
        blocks.append(objective)
    return None


def test_criterion_3_two_state_rows_and_index():
    with criterion(3, "running example: constraint rows and oracle-confirmed index"):
        problem, cap = capacity("ex1")
        assert cap.status == DETERMINED
        assert cap.k0 == 2
        assert np.allclose(
            cap.constraint_rows,
            [[1.0, 1.0], [1.1, 0.1], [1.01, 0.01]],
            atol=1e-9,
        )
        oracle_k0 = oracle_determination_index(
            cap.a_tilde, problem.system.c, problem.system.epsilon
        )
        assert oracle_k0 == 2, f"oracle recomputation gave {oracle_k0}"


# ---------------------------------------------------------------------- 4


def test_criterion_4_admissibility_exit_codes(capsys):
    with criterion(4, "gain admissibility verdicts and exit codes 0/3/3"):
        code_ok = main(["check-gain", fixture_path("ex1")])
        code_offset = main(["check-gain", fixture_path("ex6"), "--json"])
        code_nominal = main(["check-gain", fixture_path("ex7"), "--json"])
        capsys.readouterr()
        assert code_ok == 0, f"admissible fixture exited {code_ok}"
        assert code_offset == 3, f"offset-sensitive fixture exited {code_offset}"
        assert code_nominal == 3, f"nominal-violation fixture exited {code_nominal}"
        # verdict structure: ex6 keeps the nominal start but loses a basis
        # direction, ex7 loses the nominal start itself
        _, cap6 = capacity("ex6")
        assert membership(cap6, [0.3, 0.5]).member
        assert not membership(cap6, [1.0, 0.0]).member
        _, cap7 = capacity("ex7")
        problem7, _ = capacity("ex7")
        assert not membership(cap7, problem7.system.tau0).member


# ---------------------------------------------------------------------- 5


def test_criterion_5_closed_loop_cross_check():
    with criterion(5, "A + B K matches the tabulated closed loop to 1e-9"):
        for name in ("ex1", "ex2", "ex3", "ex4", "ex5"):
            problem, _ = capacity(name)
            assert problem.gain is not None and problem.a_tilde is not None
            gap = np.max(
                np.abs(closed_loop(problem.system, problem.gain) - problem.a_tilde)
            )
            assert gap <= 1e-9, f"{name}: max deviation {gap:.3e}"


# ---------------------------------------------------------------------- 6


def seeded_polygons():
    """Criterion 6's 200 random programs as (objective, g, h)."""
    rng = np.random.default_rng(606)
    for _ in range(200):
        rows = int(rng.integers(4, 13))
        g = rng.normal(size=(rows, 2))
        h = rng.uniform(0.1, 3.0, size=rows)  # origin strictly inside
        yield rng.normal(size=2), g, h


def test_criterion_6_lp_oracle_equivalence():
    with criterion(6, "simplex agrees with vertex enumeration on 200 polytopes"):
        for trial, (obj, g, h) in enumerate(seeded_polygons()):
            mine = _simplex(obj, g, h)
            status, value = polygon_maximize(obj, g, h)
            assert mine.status == status, f"trial {trial}: {mine.status} vs {status}"
            if status == OPTIMAL:
                assert abs(mine.value - value) <= 1e-7, (
                    f"trial {trial}: {mine.value} vs {value}"
                )
        _, cap2 = capacity("ex2")
        stop_values = cap2.history[cap2.k0].values
        assert max(stop_values) == pytest.approx(0.12, abs=1e-9)
        assert min(stop_values) == pytest.approx(0.12, abs=1e-9)


# ---------------------------------------------------------------------- 7


def test_criterion_7_set_properties():
    with criterion(7, "symmetry, midpoint convexity, interior, nesting, fixpoint"):
        rng = np.random.default_rng(707)
        for name in ALL_FIXTURES:
            _, cap = capacity(name)
            stack = cap.constraint_rows
            eps = cap.epsilon
            n = stack.shape[1]
            p = cap.output_dim

            # symmetry on random points
            pts = rng.uniform(-2.0, 2.0, size=(200, n))
            assert np.array_equal(
                inside(stack, eps, pts), inside(stack, eps, -pts)
            ), f"{name}: symmetry broken"

            # midpoint convexity on 1000 member pairs
            a = sample_members(stack, eps, 1000, rng)
            b = sample_members(stack, eps, 1000, rng)
            mids = 0.5 * (a + b)
            assert inside(stack, eps, a).all(), f"{name}: sampler left the set"
            assert inside(stack, eps, b).all(), f"{name}: sampler left the set"
            assert inside(stack, eps, mids).all(), f"{name}: midpoint escaped"

            # origin strictly interior with an explicit margin
            delta = eps / np.max(np.abs(stack))
            corners = delta * np.vstack([np.eye(n), -np.eye(n)])
            assert inside(stack, eps, corners).all(), f"{name}: margin violated"

            # deeper truncations only shrink the set
            probe = rng.uniform(-2.0, 2.0, size=(500, n))
            steps = stack.shape[0] // p
            previous = None
            for k in range(steps):
                current = inside(stack[: (k + 1) * p], eps, probe)
                if previous is not None:
                    assert not np.any(
                        current & ~previous
                    ), f"{name}: truncation {k} grew"
                previous = current

            # the fixpoint, once reached, persists
            if cap.status == DETERMINED:
                for extra in range(1, 6):
                    stopped, values = stop_test(cap, cap.k0 + extra)
                    assert stopped, (
                        f"{name}: stop test failed at k0+{extra}: {values}"
                    )


# ---------------------------------------------------------------------- 8


def test_criterion_8_termination_guarantees():
    with criterion(8, "contractive loops always determine; marginal case still stops"):
        rng = np.random.default_rng(808)
        for trial in range(50):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, 3))
            raw = rng.normal(size=(n, n))
            target = rng.uniform(0.1, 0.94)
            a_tilde = raw * (target / induced_inf_norm(raw))
            c = rng.normal(size=(p, n))
            eps = float(rng.uniform(0.2, 2.0))
            sys_ = SystemSpec(np.eye(n), None, c, np.zeros(n), eps)
            cap = determine(sys_, a_tilde=a_tilde)
            assert cap.status == DETERMINED, f"trial {trial}: {cap.status}"

            # when the (n-1)-step truncation is bounded, the contraction rate
            # caps how long convergence can take
            stack = sensitivity_rows(sys_, a_tilde, n - 1)
            gamma = 0.0
            bounded = True
            for i in range(n):
                for sign in (1.0, -1.0):
                    obj = np.zeros(n)
                    obj[i] = sign
                    out = maximize(obj, stack, eps)
                    if out.status == UNBOUNDED:
                        bounded = False
                        break
                    gamma = max(gamma, out.value)
                if not bounded:
                    break
            if bounded and gamma > 0.0:
                cnorm = induced_inf_norm(c)
                rate = induced_inf_norm(a_tilde)
                if cnorm * gamma > eps:
                    horizon = max(
                        n - 1,
                        math.ceil(math.log(eps / (cnorm * gamma)) / math.log(rate)),
                    ) + 1
                else:
                    horizon = n
                assert cap.k0 <= horizon, (
                    f"trial {trial}: k0={cap.k0} beyond horizon {horizon}"
                )

        # marginal spectral radius (exactly 1) is no obstacle in itself
        _, cap7 = capacity("ex7")
        assert cap7.status == DETERMINED and cap7.k0 == 1


def test_determination_index_within_the_admissible_horizon():
    # Gilbert & Tan's horizon bounds k0 from norms alone, with no LP; loops
    # of spectral radius 1 (ex3/4/5/7/8/10) and ex9 have no such bound
    for name, horizon in (("ex1", 9), ("ex2", 1), ("ex6", 21)):
        problem, cap = capacity(name)
        assert admissible_horizon(problem.system.c, cap.a_tilde) == horizon
        assert cap.k0 <= horizon, f"{name}: k0={cap.k0} beyond horizon {horizon}"
    for name in ("ex3", "ex4", "ex5", "ex7", "ex8", "ex9", "ex10"):
        problem, cap = capacity(name)
        assert admissible_horizon(problem.system.c, cap.a_tilde) is None, name
    rng = np.random.default_rng(1991)
    bounded = 0
    for trial in range(300):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 3))
        a_tilde = rng.normal(size=(n, n))
        a_tilde *= rng.uniform(0.2, 0.9) / np.max(np.abs(np.linalg.eigvals(a_tilde)))
        c = rng.normal(size=(p, n))
        horizon = admissible_horizon(c, a_tilde)
        if horizon is None:
            continue
        bounded += 1
        sys_ = SystemSpec(a_tilde, None, c, np.zeros(n), float(rng.uniform(0.2, 2.0)))
        cap = determine(sys_, a_tilde=a_tilde, max_iter=horizon + 1)
        assert cap.status == DETERMINED and cap.k0 <= horizon, (
            f"trial {trial}: {cap.status}, k0={cap.k0} beyond horizon {horizon}"
        )
    assert bounded >= 250
    # the benchmark's slow-converging ladder loops rho * Q (k0 19-54) keep
    # their recorded k0 and status, within a horizon that needs no LP
    ladder_path = Path(__file__).parent.parent / "perfbench" / "ladder_cases.json"
    ladder = json.loads(ladder_path.read_text())
    for case in ladder["cases"]:
        a_tilde, c = np.array(case["a_tilde"]), np.array(case["c"])
        sys_ = SystemSpec(a_tilde, None, c, np.zeros(case["n"]), ladder["epsilon"])
        cap = determine(sys_, a_tilde=a_tilde)
        assert (cap.k0, cap.status) == (case["k0"], case["status"]), case["seed"]
        horizon = admissible_horizon(c, a_tilde)
        assert horizon is not None and cap.k0 <= horizon, (case["seed"], cap.k0, horizon)


# ---------------------------------------------------------------------- 9


def test_criterion_9_sensitivity_identity():
    with criterion(9, "finite differences reproduce the sensitivity rows"):
        rng = np.random.default_rng(909)
        steps = 10
        h = 0.5
        for name in ALL_FIXTURES:
            problem, cap = capacity(name)
            sys_ = problem.system
            n = sys_.n
            blocks = sensitivity_rows(sys_, cap.a_tilde, steps).reshape(
                steps + 1, sys_.p, n
            )
            alpha0 = 0.37
            beta0 = rng.uniform(-0.5, 0.5, size=n)

            def run(alpha, beta):
                if problem.gain is not None:
                    return simulate(
                        sys_, problem.gain, alpha=alpha, beta=beta, steps=steps
                    ).outputs
                return simulate(
                    sys_, a_tilde=problem.a_tilde, alpha=alpha, beta=beta, steps=steps
                ).outputs

            base = run(alpha0, beta0)
            alpha_diff = (run(alpha0 + h, beta0) - base) / h
            expected = blocks @ sys_.tau0
            assert np.max(np.abs(alpha_diff - expected)) <= 1e-9, f"{name}: alpha"
            for j in range(n):
                bumped = beta0.copy()
                bumped[j] += h
                beta_diff = (run(alpha0, bumped) - base) / h
                expected_j = blocks @ np.eye(n)[j]
                assert np.max(np.abs(beta_diff - expected_j)) <= 1e-9, (
                    f"{name}: beta_{j + 1}"
                )


# --------------------------------------------------------------------- 10


def test_criterion_10_scaling_invariance():
    with criterion(10, "doubling the band rescales the set without reshaping it"):
        problem, cap = capacity("ex1")
        sys_ = problem.system
        doubled_sys = SystemSpec(sys_.a, sys_.b, sys_.c, sys_.tau0, 2.0 * sys_.epsilon)
        doubled = determine(doubled_sys, problem.gain)
        assert doubled.status == DETERMINED
        assert doubled.k0 == cap.k0
        assert np.allclose(doubled.constraint_rows, cap.constraint_rows, atol=1e-12)
        rng = np.random.default_rng(1010)
        for x in rng.uniform(-2.0, 2.0, size=(100, 2)):
            assert (
                membership(cap, x).member == membership(doubled, 2.0 * x).member
            ), f"scaling mismatch at {x}"


def verdict(name: str, scale: float) -> tuple:
    """``k0``, status and the check-gain verdict of a fixture whose ``C`` and
    ``epsilon`` are both scaled by ``scale``; steps and constraints, not
    magnitudes, which scale with the outputs."""
    problem, _ = capacity(name)
    sys_, opts = problem.system, problem.options
    scaled = SystemSpec(sys_.a, sys_.b, scale * sys_.c, sys_.tau0, scale * sys_.epsilon)
    loop = {"gain": problem.gain} if problem.gain is not None else {"a_tilde": problem.a_tilde}
    report = check_gain(scaled, **loop, max_iter=opts.max_iter, stop_tol=opts.stop_tol)
    alpha = report.alpha_violation
    return (
        report.capacity.k0,
        report.capacity.status,
        report.admissible,
        None if alpha is None else (alpha.step, alpha.constraint),
        [(bv.index, bv.first_violation_step) for bv in report.beta_violations],
    )


def test_output_units_leave_k0_and_verdicts_unchanged():
    # scaling C and epsilon by the same factor leaves the capacity set as it
    # is, so the tolerances of the stop test and of membership are relative
    for name in ALL_FIXTURES:
        if name == "ex9":  # it runs to its iteration limit, slower than the rest together
            continue
        unscaled = verdict(name, 1.0)
        for scale in (1e-15, 1e-12, 1e-9, 1e-6, 1e6, 1e12):
            assert verdict(name, scale) == unscaled, f"{name} at scale {scale:g}"


# ------------------------------------------------------------ exact oracle


def test_exact_lp_matches_polygon_oracle():
    for trial, (obj, g, h) in enumerate(seeded_polygons()):
        status, value = polygon_maximize(obj, g, h)
        exact_status, exact_value = exact_maximize(obj, g, h)
        assert exact_status == status, f"trial {trial}: {exact_status} vs {status}"
        if status == OPTIMAL:
            assert abs(float(exact_value) - value) <= 1e-7, (
                f"trial {trial}: {float(exact_value)} vs {value}"
            )


def test_exact_index_matches_polygon_index():
    for name in ("ex1", "ex2", "ex3", "ex4", "ex6", "ex7", "ex8", "ex10"):
        problem, _ = capacity(name)
        exact = exact_determination_index(*exact_loop(name), limit=10)
        polygon = oracle_determination_index(
            problem.a_tilde, problem.system.c, problem.system.epsilon
        )
        assert exact == polygon, f"{name}: exact {exact}, polygon oracle {polygon}"
