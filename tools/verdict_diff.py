"""Where the verdicts of two checkouts differ, and how far their LP maxima moved:

    python3 tools/verdict_diff.py PARENT CHANGE

Collects the same parts from each checkout in turn: ``determine`` on
ex1-ex10 (each capacity set with its history) and ``stop_test`` at steps
1-3, and every result of the ladder, sweep and cli workloads at seeds 201,
202 and 7 (each report with its capacity set, each cli exit code and
stdout).  ex9, whose rows grow to 1e59, is its own part.  Per part it
prints the results compared and the mismatches of each kind:

- ``k0``, ``status``, ``rows`` (``constraint_rows`` bytes) of every capacity set;
- ``verdict``: each ``check_gain`` report less its set, and each
  ``stop_test`` pass or fail;
- ``exit``: each cli exit code;
- ``other``: the rest (steps, errors, ``analyze`` reports, cli stdout with
  the maxima of ``determine --json`` taken out, and the results' shapes),

and the largest relative difference of any history maximum and of any
``stop_test`` maximum, inf where one side is unbounded and the other is
not.  It exits 1 on any mismatch; no mismatch and both largest differences
0 mean every result is bit-identical.  gaincap and the workloads are
imported from each checkout, and no bytecode is written.
"""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

KINDS = ("k0", "status", "rows", "verdict", "exit", "other")
MAXIMA = ("history", "stop_test")
SEEDS = (201, 202, 7)


def array_key(a):
    return f"{a.dtype}{a.shape}".encode() + a.tobytes()


def capacity(cap, out):
    out += [("k0", cap.k0), ("status", cap.status), ("rows", array_key(cap.constraint_rows)),
            ("other", (cap.epsilon, cap.output_dim, array_key(cap.a_tilde)))]
    for record in cap.history:
        out += [("other", (record.step, record.stopped)), ("history", record.values)]


def report(rep, out):
    verdict = [getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "capacity"]
    out.append(("verdict", repr(verdict)))
    capacity(rep.capacity, out)


def json_maxima(doc, out):
    """A ``determine --json`` document: each step's maxima apart, the rest as text."""
    for record in doc.get("iterations", []):
        values = record.pop("values")
        out.append(("history", tuple(math.inf if v is None else v for v in values)))
    out.append(("other", json.dumps(doc, sort_keys=True)))


def cli_result(result, out):
    code, stdout = result
    out.append(("exit", code))
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        json_maxima(doc, out)
    else:  # a region raster runs to megabytes
        out.append(("other", hashlib.sha256(stdout.encode()).hexdigest()))


def attempt(out, call, *args):
    try:
        return call(*args)
    except Exception as err:  # a failure is a result too
        out.append(("other", (repr(err), getattr(err, "step", None), getattr(err, "constraint", None))))
        return None


def collect(checkout):
    """Every compared item of a checkout, as ``(kind, value)`` lists by part."""
    checkout = Path(checkout).resolve()
    paths = [str(checkout / "src"), str(checkout / "perfbench")]
    sys.path[:0] = paths
    try:
        import gaincap
        import workloads
        from gaincap.cli import load_problem

        assert Path(gaincap.__file__).is_relative_to(checkout), gaincap.__file__
        parts = {"fixtures": [], "ex9": [], "ladder": [], "sweep": [], "cli": []}
        for i in range(1, 11):
            out = parts["ex9" if i == 9 else "fixtures"]
            prob = load_problem(str(checkout / "tests" / "fixtures" / f"ex{i}.json"))
            loop = {"gain": prob.gain} if prob.gain is not None else {"a_tilde": prob.a_tilde}
            cap = gaincap.determine(prob.system, **loop, max_iter=prob.options.max_iter,
                                    stop_tol=prob.options.stop_tol)
            capacity(cap, out)
            for step in (1, 2, 3):
                result = attempt(out, gaincap.stop_test, cap, step)
                if result is not None:
                    out += [("verdict", result[0]), ("stop_test", result[1])]
        for name in ("ladder", "sweep", "cli"):
            out = parts[name]
            for seed in SEEDS:
                w = workloads.WORKLOADS[name](seed)
                for i in range(w.size):
                    result = attempt(out, w.run, i)
                    if result is None:
                        continue
                    if name == "ladder":
                        report(result, out)
                    elif name == "sweep":
                        out.append(("other", repr(result[0])))
                        report(result[1], out)
                    else:
                        cli_result(result, out)
        return parts
    finally:
        del sys.path[: len(paths)]
        for module in [m for m in sys.modules if m.split(".")[0] in ("gaincap", "workloads", "oracle")]:
            del sys.modules[module]


def relative(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return None
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    diff[a == b] = 0.0
    diff[np.isnan(diff)] = math.inf  # inf against a finite value
    return float(diff.max(initial=0.0))


def compare(parent, change):
    """Mismatches per kind, and the largest relative difference of each kind
    of maxima."""
    counts = dict.fromkeys(KINDS, 0)
    largest = dict.fromkeys(MAXIMA, 0.0)
    if [k for k, _ in parent] != [k for k, _ in change]:
        counts["other"] += 1  # the results differ in shape: compare what lines up
    for (kind, old), (new_kind, new) in zip(parent, change):
        if kind != new_kind:
            continue
        if kind in MAXIMA:
            rel = relative(old, new)
            if rel is None:
                counts["other"] += 1
            else:
                largest[kind] = max(largest[kind], rel)
        elif old != new:
            counts[kind] += 1
    return counts, largest


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.dont_write_bytecode = True
    parent, change = collect(argv[1]), collect(argv[2])
    print(f"{'part':9}{'items':>8}" + "".join(f"{k:>9}" for k in KINDS)
          + "".join(f"{k:>11}" for k in MAXIMA))
    mismatched = False
    for part in parent:
        counts, largest = compare(parent[part], change[part])
        mismatched |= any(counts.values())
        items = sum(kind not in MAXIMA for kind, _ in parent[part])
        print(f"{part:9}{items:>8}" + "".join(f"{counts[k]:>9}" for k in KINDS)
              + "".join(f"{largest[k]:>11.2e}" for k in MAXIMA))
    return int(mismatched)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
