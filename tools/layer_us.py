"""Microseconds per verdict in each timed layer of a checkout, and its LP counts:

    python3 tools/layer_us.py CHECKOUT

Runs sweep and ladder at seed 201 in process, five batches each, with each
layer below wrapped in a timer, and prints each layer's best batch; a time
includes the layers it calls and the wrappers' cost.  ``step, no simplex``
is a ``_step`` that ran no simplex, ``step, simplex glue`` one that did, less
its simplex.  The counts come from the ``answers`` of the
``IterationRecord`` each ``_step`` returns, one ``(start, pivots)`` per row:
``simplex LPs`` counts the rows the simplex solved, ``closed-form LPs``
those answered without it over a square band of n rows at rank n, ``warm
LPs`` the simplex LPs that started away from the origin, from the vertex of
their band's previous LP, ``skipped rows`` the rows the rank test
answered with no LP, and ``settled rows`` the rows ``check_gain``'s search
answered with no LP because their maximum at the step before was already
within the band (a row's maximum never grows from one step to the next,
so its previous value bounds it).  ``determine`` is 0 where the
workloads reach the search only through ``check_gain``, which runs it
as ``_search``.  A band takes in its rows when they join, so
``Band.extend`` holds the Gram-Schmidt of the row-space basis and the
inverse of a square band.  gaincap and the workloads come from the
checkout, and no bytecode is written; a layer the checkout lacks reads
0.  A checkout whose records have no ``answers`` is read with its own
copy of this tool.
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
    "_search": (capacity, "_search"),
    "_advance": (capacity, "_advance"), "_step": (capacity, "_step"),
    "Band.extend": (lp.Band, "extend"), "Band._maximize": (lp.Band, "_maximize"),
    "simplex": (lp, "_solve"), "_reprice": (lp, "_reprice"), "_origin": (lp, "_origin"),
}
COUNTS = ("steps", "no-simplex steps", "simplex LPs", "closed-form LPs", "warm LPs", "pivots",
          "skipped rows", "settled rows")
tally = defaultdict(float)


def timed(name, call):
    def wrapper(*args, **kwargs):
        simplex = tally["simplex"]
        start = perf_counter()
        out = call(*args, **kwargs)
        spent = perf_counter() - start
        tally[name] += spent
        if name == "_step":
            starts = [how for how, _ in out.answers]
            solved = starts.count("origin") + starts.count("vertex")
            glue = "step, simplex glue" if solved else "step, no simplex"
            tally[glue] += spent - tally["simplex"] + simplex
            tally["steps"] += 1
            tally["no-simplex steps"] += not solved
            tally["simplex LPs"] += solved
            tally["closed-form LPs"] += starts.count("closed")
            tally["warm LPs"] += starts.count("vertex")
            tally["pivots"] += sum(pivots for _, pivots in out.answers)
            tally["skipped rows"] += starts.count("rank")
            tally["settled rows"] += starts.count("settled")
        return out
    return wrapper


for name, (owner, attr) in LAYERS.items():
    if hasattr(owner, attr):
        setattr(owner, attr, timed(name, getattr(owner, attr)))
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
    cells = [format(best[w].get(name, 0) * scale, form) for w in best]
    print(f"{name:24}{cells[0]:>10}{cells[1]:>10}")
