"""Differential tests: the determination index of the search against the
exact rational one of ``oracles`` on random loops (McKeeman 1998), and
relations between loops that need no oracle.

Two seeded families of loops ``(a_tilde, c)`` with epsilon 1:

- stable dyadic loops, n 2-4 and p 1-2, every entry k/64 and spectral
  radius 0.5-0.98; their entries are exact in binary, so the float64 loop
  is the exact one;
- coarse loops, ``a_tilde`` in {0, +-1/2, +-1} and ``c`` in {0, +-1}, whose
  maxima often tie epsilon exactly.  Most coarse draws never determine
  within ``COARSE_STEPS`` steps, so the test takes a dozen draws screened
  beforehand: radius at most 1, no growing mode, an exact index within the
  limit, and eight of them an exact tie at their index;
- nearly dependent loops, dyadic loops of another seed whose two output
  rows are the loop's first row ``c0`` and ``c0 + 2**-e d``, ``d`` of
  entries k/64 and e cycling through 24, 36, 48 and 56.  The band counts
  the second row as a new direction for e up to 36 and drops it at 56, so
  the family spans both the band's rank tolerance and its residual test.
"""

import numpy as np
import pytest

from gaincap.capacity import DETERMINED, ITERATION_LIMIT, SystemSpec, check_gain, determine
from gaincap.lp import Band, equilibrate
from oracles import exact_determination_index, exact_step_maxima, growing_mode

DYADIC_STEPS = 60
COARSE_STEPS = 25
COARSE_DRAWS = (10, 36, 50, 70, 71, 121, 135, 176, 178, 205, 244, 290)
NEAR_EXPONENTS = (24, 36, 48, 56)


def dyadic_loops(seed, count):
    rng = np.random.default_rng(seed)
    loops = []
    while len(loops) < count:
        n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        a *= float(rng.uniform(0.5, 0.98)) / np.abs(np.linalg.eigvals(a)).max()
        a = np.round(64.0 * a) / 64.0
        if 0.5 <= np.abs(np.linalg.eigvals(a)).max() <= 0.98:
            loops.append((a, rng.integers(-64, 65, size=(p, n)) / 64.0))
    return loops


def coarse_loops(seed, draws):
    rng = np.random.default_rng(seed)
    loops = []
    for draw in range(max(draws) + 1):
        n, p = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        a = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, n))
        c = rng.choice([-1.0, 0.0, 1.0], size=(p, n))
        if draw in draws:
            loops.append((a, c))
    return loops


def nearly_dependent_loops(seed, count):
    rng = np.random.default_rng(seed)
    loops = []
    for i, (a, c) in enumerate(dyadic_loops(seed, count)):
        d = rng.integers(-64, 65, size=a.shape[0]) / 64.0
        loops.append((a, np.vstack([c[0], c[0] + 2.0 ** -NEAR_EXPONENTS[i % 4] * d])))
    return loops


DYADIC = dyadic_loops(1, 100)
COARSE = coarse_loops(3, COARSE_DRAWS)
NEAR = nearly_dependent_loops(2, 48)


def search(a, c, steps):
    """The status and index of the search on the loop ``(a, c)``."""
    cap = determine(SystemSpec(a, None, c, np.zeros(a.shape[0]), 1.0), a_tilde=a, max_iter=steps)
    return cap.status, cap.k0


def exact(a, c, steps):
    """The status and index of the exact search, within ``steps`` steps."""
    k0 = exact_determination_index(c, a, 1, steps)
    return (ITERATION_LIMIT, None) if k0 is None else (DETERMINED, k0)


def test_dyadic_loops_match_the_exact_index():
    indices = [exact(a, c, DYADIC_STEPS) for a, c in DYADIC]
    assert [search(a, c, DYADIC_STEPS) for a, c in DYADIC] == indices
    assert {status for status, _ in indices} == {DETERMINED}
    assert max(k0 for _, k0 in indices) >= 5


def test_coarse_loops_match_the_exact_index():
    ties = 0
    for a, c in COARSE:
        assert np.abs(np.linalg.eigvals(a)).max() <= 1.0 + 1e-9
        assert growing_mode(c, a) is None
        expected = exact(a, c, COARSE_STEPS)
        assert expected[0] == DETERMINED
        assert search(a, c, COARSE_STEPS) == expected
        ties += max(exact_step_maxima(c, a, 1, expected[1])) == 1
    assert ties == 8


def band_rank(c):
    band = Band(c[:0], 1.0)
    band.extend(*equilibrate(c))
    return band.rank


def test_nearly_dependent_loops_match_the_exact_index():
    ranks = {e: set() for e in NEAR_EXPONENTS}
    for i, (a, c) in enumerate(NEAR):
        ranks[NEAR_EXPONENTS[i % 4]].add(band_rank(c))
    assert ranks == {24: {2}, 36: {2}, 48: {1, 2}, 56: {1}}
    assert [search(a, c, DYADIC_STEPS) for a, c in NEAR] == [
        exact(a, c, DYADIC_STEPS) for a, c in NEAR
    ]


@pytest.mark.parametrize("family, steps",
                         [(DYADIC, DYADIC_STEPS), (COARSE, COARSE_STEPS), (NEAR, DYADIC_STEPS)],
                         ids=["dyadic", "coarse", "nearly-dependent"])
def test_permuted_negated_or_duplicated_outputs_keep_k0(family, steps):
    # each output row bounds the same set as its negation, in any order and
    # however often it appears, so the capacity set and k0 stay the same
    rng = np.random.default_rng(5)
    for a, c in family:
        expected = search(a, c, steps)
        p = c.shape[0]
        assert search(a, c[rng.permutation(p)], steps) == expected
        assert search(a, c * rng.choice([-1.0, 1.0], size=(p, 1)), steps) == expected
        assert search(a, np.vstack([c, c[rng.integers(p)]]), steps) == expected


def test_check_gain_finds_the_set_of_determine():
    # check_gain's search settles, with no LP, a row that was inside the
    # band at the step before; the coarse family's exact ties at epsilon
    # settle too, and the index, status and rows stay determine's
    settled = []
    for family, steps in ((DYADIC, DYADIC_STEPS), (COARSE, COARSE_STEPS), (NEAR, DYADIC_STEPS)):
        settled.append(0)
        for a, c in family:
            sys_ = SystemSpec(a, None, c, np.zeros(a.shape[0]), 1.0)
            cap = determine(sys_, a_tilde=a, max_iter=steps)
            got = check_gain(sys_, a_tilde=a, max_iter=steps).capacity
            assert (got.k0, got.status) == (cap.k0, cap.status)
            assert got.constraint_rows.tobytes() == cap.constraint_rows.tobytes()
            settled[-1] += sum(start == "settled" for r in got.history for start, _ in r.answers)
    assert settled[0] > 0 and settled[1] > 0, settled
