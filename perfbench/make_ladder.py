"""Record the ladder workload's loops and their reference results.

Each case is ``a_tilde = rho * Q`` with ``Q`` a random orthogonal matrix,
an output map with unit-norm rows and ``epsilon = 0.3``.  The (n, p, rho,
seed) table was chosen so that k0 spans 13-57, every stop step clears
``epsilon`` by at least 1e-3 (no ties), and the whole ladder takes a few
seconds per pass.  The matrices are written out in full, so the workload
does not depend on how a numpy version draws random numbers, and the
recorded ``k0`` and ``status`` are what the benchmark checks each run
against.

Run from the repository root:  python3 perfbench/make_ladder.py
"""

import json
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from gaincap import SystemSpec, determine  # noqa: E402

EPSILON = 0.3
MIN_STOP_MARGIN = 1e-3
CASES = [  # n, p, rho, seed
    (4, 2, 0.985, 2),
    (5, 3, 0.985, 3),
    (6, 3, 0.985, 3),
    (7, 2, 0.985, 1),
    (8, 2, 0.99, 0),
    (9, 3, 0.98, 2),
    (10, 2, 0.985, 3),
    (16, 2, 0.98, 3),
]


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def make_case(n, p, rho, seed):
    rng = np.random.default_rng([2016, n, p, seed])
    a_tilde = rho * random_orthogonal(rng, n)
    c = rng.standard_normal((p, n))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    cap = determine(SystemSpec(a_tilde, None, c, np.zeros(n), EPSILON), a_tilde=a_tilde)
    margin = EPSILON - max(cap.history[-1].values)
    if cap.k0 is None or margin < MIN_STOP_MARGIN:
        raise SystemExit(f"case {(n, p, rho, seed)} stops at a near-tie or not at all")
    return {
        "n": n,
        "p": p,
        "rho": rho,
        "seed": seed,
        "k0": cap.k0,
        "status": cap.status,
        "stop_margin": margin,
        "a_tilde": a_tilde.tolist(),
        "c": c.tolist(),
    }


def main():
    cases = [make_case(*spec) for spec in CASES]
    out = {"epsilon": EPSILON, "cases": cases}
    (BENCH_DIR / "ladder_cases.json").write_text(json.dumps(out, indent=1) + "\n")
    for case in cases:
        print(case["n"], case["p"], case["rho"], "k0", case["k0"], case["status"])


if __name__ == "__main__":
    main()
