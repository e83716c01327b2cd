"""Microseconds per verdict in each timed layer of a checkout, and its LP counts:

    python3 tools/layer_us.py CHECKOUT

Runs sweep and ladder at seed 201 in process, five batches each, with each
layer below wrapped in a timer, and prints each layer's best batch; a time
includes the layers it calls and the wrappers' cost.  ``step, no simplex``
is a ``_step`` that ran no simplex, ``step, simplex glue`` one that did, less
its simplex.  ``simplex LPs`` counts the LPs the simplex solved, and
``closed-form LPs`` those ``Band.maximize`` answered without it, over a
square band of n rows at rank n.  ``warm LPs`` counts the LPs that started
from the vertex of their block's previous LP, each repriced once by
``_reprice``.  gaincap and the workloads come from the checkout, no bytecode
is written, and a layer the checkout lacks prints ``-``.
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
    "Band.maximize": (lp.Band, "maximize"), "simplex": (lp, "_solve"),
    "_reprice": (lp, "_reprice"),
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
        elif name == "Band.maximize":
            tally["closed-form LPs"] += tally["simplex LPs"] == lps
        elif name == "Band.unbounded":
            tally["skipped rows"] += sum(out)
        elif name == "_reprice":
            tally["warm LPs"] += 1
        return out
    return wrapper


absent = [name for name, (owner, attr) in LAYERS.items() if not hasattr(owner, attr)]
for name, (owner, attr) in LAYERS.items():
    if name not in absent:
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
    missing = name in absent or (name == "warm LPs" and "_reprice" in absent)
    cells = ["-" if missing else format(best[w].get(name, 0) * scale, form) for w in best]
    print(f"{name:24}{cells[0]:>10}{cells[1]:>10}")
