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
  limit, and eight of them an exact tie at their index.
"""

import numpy as np
import pytest

from gaincap.capacity import DETERMINED, ITERATION_LIMIT, SystemSpec, determine
from oracles import exact_determination_index, exact_step_maxima, growing_mode

DYADIC_STEPS = 60
COARSE_STEPS = 25
COARSE_DRAWS = (10, 36, 50, 70, 71, 121, 135, 176, 178, 205, 244, 290)


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


DYADIC = dyadic_loops(1, 100)
COARSE = coarse_loops(3, COARSE_DRAWS)


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


@pytest.mark.parametrize("family, steps", [(DYADIC, DYADIC_STEPS), (COARSE, COARSE_STEPS)],
                         ids=["dyadic", "coarse"])
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
