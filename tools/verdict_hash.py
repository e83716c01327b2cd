"""One sha256 per part, and one overall, of every verdict a checkout gives:

    python3 tools/verdict_hash.py CHECKOUT

Parts: ``determine`` on ex1-ex10 and ``stop_test`` at steps 1-3, and every
result of the ladder, sweep and cli workloads (each report with its capacity
set, each command's exit code and stdout) at seeds 201, 202 and 7.  gaincap
and the workloads are imported from the checkout, and no bytecode is written.
"""

import dataclasses
import functools
import hashlib
import sys
from pathlib import Path

import numpy as np

CHECKOUT = Path(sys.argv[1]).resolve()
sys.dont_write_bytecode = True
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "perfbench")]
import gaincap  # noqa: E402
import workloads  # noqa: E402
from gaincap.cli import load_problem  # noqa: E402

assert Path(gaincap.__file__).is_relative_to(CHECKOUT), gaincap.__file__


def feed(h, value):
    """Fields by name, arrays by dtype, shape and bytes, the rest by repr."""
    if dataclasses.is_dataclass(value):
        value = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode() + value.tobytes())
    elif isinstance(value, (tuple, list)):
        for item in value:
            feed(h, item)
        h.update(b")")
    else:
        h.update(repr(value).encode() + b";")


def attempt(h, call, *args):
    try:
        feed(h, call(*args))
    except Exception as err:  # a failure is a result too
        feed(h, (repr(err), getattr(err, "step", None), getattr(err, "constraint", None)))


def fixtures(h):
    for i in range(1, 11):
        prob = load_problem(str(CHECKOUT / "tests" / "fixtures" / f"ex{i}.json"))
        loop = {"gain": prob.gain} if prob.gain is not None else {"a_tilde": prob.a_tilde}
        cap = gaincap.determine(prob.system, **loop, max_iter=prob.options.max_iter,
                                stop_tol=prob.options.stop_tol)
        feed(h, cap)
        for step in (1, 2, 3):
            attempt(h, gaincap.stop_test, cap, step)


def workload(name, h):
    for seed in (201, 202, 7):
        w = workloads.WORKLOADS[name](seed)
        for i in range(w.size):
            attempt(h, w.run, i)


parts = {"fixtures": fixtures} | {w: functools.partial(workload, w) for w in ("ladder", "sweep", "cli")}
overall = hashlib.sha256()
for name, part in parts.items():
    h = hashlib.sha256()
    part(h)
    overall.update(h.digest())
    print(f"{name:9}{h.hexdigest()}")
print(f"{'overall':9}{overall.hexdigest()}")
