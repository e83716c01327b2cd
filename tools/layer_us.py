"""Microseconds per verdict in each timed layer of a checkout, and its LP counts:

    python3 tools/layer_us.py CHECKOUT

Runs sweep and ladder at seed 201 in process, five batches each, with each
layer below wrapped in a timer, and prints each layer's best batch; a time
includes the layers it calls and the wrappers' cost.  ``step, no simplex``
is a ``_step`` that ran no simplex, ``step, simplex glue`` one that did, less
its simplex.  ``simplex LPs`` counts the LPs the simplex solved, and
``closed-form LPs`` those ``Band._maximize`` answered without it, over a
square band of n rows at rank n.  ``warm LPs`` counts the LPs that started
away from the origin, from the vertex of their band's previous LP: the calls
of ``_reprice``, which prices each simplex LP once, less those of
``_origin``, which builds the origin of a fresh or grown band for its first.
``skipped rows`` counts the rows ``Band.maxima`` answered with no LP, by its
rank test: the outcomes it yielded less the LPs of ``Band._maximize``.  A
band settles its rows when they join, so ``Band.extend`` holds the
Gram-Schmidt of the row-space basis and the inverse of a square band.  A
checkout whose band has a public ``Band.maximize`` and ``Band.unbounded``
is read too: the first stands for ``Band._maximize``, and the second's time
less the joins it makes is its residual test, which ``Band.maxima`` runs
itself where ``Band.unbounded`` is gone.  gaincap and the workloads come
from the checkout, no bytecode is written, and a layer the checkout lacks
prints ``-``.
"""

import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

CHECKOUT = Path(sys.argv[1]).resolve()
sys.dont_write_bytecode = True
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "perfbench")]
import gaincap  # noqa: E402
from gaincap import capacity, lp  # noqa: E402
import workloads  # noqa: E402

assert Path(capacity.__file__).is_relative_to(CHECKOUT), capacity.__file__

LAYERS = {
    "analyze": (gaincap, "analyze"), "rank": (capacity, "rank"),
    "_output_rows": (capacity, "_output_rows"), "spectral_radius": (capacity, "spectral_radius"),
    "controllability_matrix": (capacity, "controllability_matrix"),
    "induced_inf_norm": (capacity, "induced_inf_norm"), "closed_loop": (capacity, "closed_loop"),
    "check_gain": (gaincap, "check_gain"), "determine": (capacity, "determine"),
    "_advance": (capacity, "_advance"), "_step": (capacity, "_step"),
    "Band.extend": (lp.Band, "extend"), "Band.unbounded": (lp.Band, "unbounded"),
    "Band._maximize": (lp.Band, "_maximize", "maximize"), "simplex": (lp, "_solve"),
    "_reprice": (lp, "_reprice"), "_origin": (lp, "_origin"),
}
COUNTS = ("steps", "no-simplex steps", "simplex LPs", "closed-form LPs", "warm LPs", "pivots",
          "skipped rows")
tally = defaultdict(float)


def timed(name, call):
    def wrapper(*args, **kwargs):
        lps, simplex = tally["simplex LPs"], tally["simplex"]
        start = perf_counter()
        out = call(*args, **kwargs)
        spent = perf_counter() - start
        tally[name] += spent
        if name == "_step":
            idle = tally["simplex LPs"] == lps
            glue = "step, no simplex" if idle else "step, simplex glue"
            tally[glue] += spent - tally["simplex"] + simplex
            tally["steps"] += 1
            tally["no-simplex steps"] += idle
        elif name == "simplex":
            tally["simplex LPs"] += 1
            tally["pivots"] += out.pivots
        elif name == "Band._maximize":
            tally["closed-form LPs"] += tally["simplex LPs"] == lps
            tally["skipped rows"] -= 1
        elif name == "_reprice":
            tally["warm LPs"] += 1
        elif name == "_origin":
            tally["warm LPs"] -= 1
        return out
    return wrapper


def answered(maxima):
    """``Band.maxima``, counting each row it answers (a generator, so untimed)."""
    def wrapper(*args, **kwargs):
        for out in maxima(*args, **kwargs):
            tally["skipped rows"] += 1
            yield out
    return wrapper


absent = []
for name, (owner, *attrs) in LAYERS.items():
    attr = next((a for a in attrs if hasattr(owner, a)), None)
    if attr is None:
        absent.append(name)
    else:
        setattr(owner, attr, timed(name, getattr(owner, attr)))
lp.Band.maxima = answered(lp.Band.maxima)
best = {}
for workload in ("sweep", "ladder"):
    w = workloads.WORKLOADS[workload](201)
    batches = []
    for _ in range(5):
        tally.clear()
        for i in range(w.size):
            w.run(i)
        batches.append({k: v / w.size for k, v in tally.items()})
    best[workload] = {k: min(b.get(k, 0.0) for b in batches) for k in batches[0]}
print(f"{'us per verdict':24}{'sweep':>10}{'ladder':>10}")
for name in [*LAYERS, "step, no simplex", "step, simplex glue", *COUNTS]:
    scale, form = (1, ".2f") if name in COUNTS else (1e6, ".1f")
    cells = ["-" if name in absent else format(best[w].get(name, 0) * scale, form) for w in best]
    print(f"{name:24}{cells[0]:>10}{cells[1]:>10}")
