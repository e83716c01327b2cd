"""The benchmark's three workloads: seeded inputs, one verdict per call, and
the oracle check of each verdict.

A workload exposes ``size`` verdicts; ``keys[i]`` names the input of
verdict i, the same for verdicts that repeat one input.  ``run(i)`` makes verdict i through
gaincap's public API or CLI and is the only timed part; ``digest(i, result)``
reduces the result to what the oracle needs; ``check(i, digest)`` returns a
list of failure messages (empty when the verdict is right).  gaincap is
always reached through a module attribute looked up at call time, so the
tracer's wrappers see every call.
"""

import contextlib
import io
import json
import re
from pathlib import Path
from time import perf_counter

import numpy as np

import gaincap
import gaincap.cli
import oracle

BENCH_DIR = Path(__file__).resolve().parent
FIXTURES = BENCH_DIR / "fixtures"
BOUNDARY_DIRECTIONS = 6
_KERNEL_DATA = np.cos(np.arange(100 * 130.0)).reshape(100, 130)


# Reference kernels gauge how fast the shared machine runs at the moment.
# They never touch gaincap but repeat the kind of work a workload's verdicts
# spend their time on, since a busy neighbour slows interpreter loops,
# small numpy calls and cache-sized array updates by different amounts.
# Each workload's REFERENCE_S is its kernel's time on an idle core of the
# machine the benchmark was tuned on (2-core x86-64 VM at 2.1 GHz).

def mixed_kernel():
    """Interpreter loops, small numpy updates and float formatting."""
    start = perf_counter()
    total = 0
    for i in range(10000):
        total += i * i
    t = _KERNEL_DATA[:60, :120].copy()
    for _ in range(30):
        t -= np.outer(t[:, 0] * 1e-3, t[0])
    "\n".join("%.17g,%.17g" % (x, y) for x, y in t[:, :20].reshape(-1, 2))
    return perf_counter() - start


def pivot_kernel():
    """Simplex-like pivots: an element-wise scan of one tableau row in an
    interpreter loop, then a rank-one update of a 100 x 130 tableau."""
    start = perf_counter()
    t = _KERNEL_DATA.copy()
    for _ in range(30):
        for value in t[0]:
            if value > 2.0:
                break
        t -= np.outer(t[:, 0] * 1e-3, t[0])
    return perf_counter() - start


def _membership_failures(classes, alpha, betas, admissible):
    """Compare check_gain's n+1 membership verdicts (tau0, e_1..e_n) with
    the oracle's classes."""
    failures = []
    if not oracle.agrees(classes[0], alpha):
        failures.append(f"tau0 membership {alpha}, oracle class {classes[0]}")
    for j, cls in enumerate(classes[1:], start=1):
        if not oracle.agrees(cls, j not in betas):
            failures.append(f"e{j} membership {j not in betas}, oracle class {cls}")
    if admissible != (alpha and not betas):
        failures.append("admissible flag disagrees with the memberships")
    return failures


def _report_digest(report):
    cap = report.capacity
    return {
        "k0": cap.k0,
        "status": cap.status,
        "alpha": report.alpha_tolerable,
        "betas": frozenset(bv.index for bv in report.beta_violations),
        "admissible": report.admissible,
        "rows": cap.constraint_rows,
    }


class Ladder:
    """check_gain on the recorded slow-converging loops ``rho * Q``.

    The seed draws the case order, a unit for each state (a diagonal
    similarity ``D^-1 A D`` with entries in [1/2, 2]) and the nominal start
    tau0.  A diagonal change of units leaves k0, the LP sizes and the
    simplex's pivot path unchanged, so every seed puts the same load on the
    LP while the numbers gaincap sees, and its verdicts, differ.
    """

    reference = staticmethod(pivot_kernel)
    REFERENCE_S = 0.0009

    def __init__(self, seed):
        data = json.loads((BENCH_DIR / "ladder_cases.json").read_text())
        eps = data["epsilon"]
        rng = np.random.default_rng(seed)
        self.inputs = []
        for idx in rng.permutation(len(data["cases"])):
            case = data["cases"][idx]
            n = case["n"]
            units = np.exp(rng.uniform(-np.log(2.0), np.log(2.0), n))
            a_tilde = np.array(case["a_tilde"]) * units[None, :] / units[:, None]
            c = np.array(case["c"]) * units[None, :]
            tau0 = 0.1 * rng.standard_normal(n)
            self.inputs.append(
                {
                    "case": case,
                    "spec": gaincap.SystemSpec(a_tilde, None, c, tau0, eps),
                    "a_tilde": a_tilde,
                    "directions": rng.standard_normal((n, BOUNDARY_DIRECTIONS)),
                }
            )
        self.size = len(self.inputs)
        self.keys = list(range(self.size))
        self.warm_index = min(range(self.size), key=lambda i: self.inputs[i]["case"]["n"])
        self._expected = {}

    def run(self, i):
        inp = self.inputs[i]
        return gaincap.check_gain(inp["spec"], a_tilde=inp["a_tilde"])

    def label(self, i):
        case = self.inputs[i]["case"]
        return f"n={case['n']} p={case['p']} rho={case['rho']}"

    def digest(self, i, report):
        return _report_digest(report)

    def check(self, i, d):
        inp = self.inputs[i]
        case, spec, a = inp["case"], inp["spec"], inp["a_tilde"]
        failures = []
        if (d["k0"], d["status"]) != (case["k0"], case["status"]):
            failures.append(
                f"k0/status {d['k0']}/{d['status']}, recorded {case['k0']}/{case['status']}"
            )
        if i not in self._expected:
            starts = np.column_stack([spec.tau0, np.eye(spec.n)])
            self._expected[i] = oracle.classify(a, spec.c, starts, spec.epsilon)
        failures += _membership_failures(self._expected[i], d["alpha"], d["betas"], d["admissible"])
        bad = oracle.boundary_mismatches(a, spec.c, d["rows"], spec.epsilon, inp["directions"])
        if bad:
            failures.append(f"{bad} boundary points of the capacity set misclassified")
        return failures


class Sweep:
    """analyze then check_gain on many small random plants.

    Plants cycle through every (n, m, p) in 2-6 x 1-2 x 1-2 so each seed
    has the same size mix; A is scaled to spectral radius 0.6, the gain is
    small (closed-loop spectral radius below 0.9) and epsilon is 0.8-1.6
    times the largest output-map entry, which gives a mix of admissible and
    inadmissible gains with k0 of 0-9.
    """

    reference = staticmethod(mixed_kernel)
    REFERENCE_S = 0.0022
    PLANTS = 1000
    SHAPES = [(n, m, p) for n in range(2, 7) for m in (1, 2) for p in (1, 2)]

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for i in range(self.PLANTS):
            n, m, p = self.SHAPES[i % len(self.SHAPES)]
            a = rng.standard_normal((n, n))
            a *= 0.6 / oracle.spectral_radius(a)
            b = rng.standard_normal((n, m))
            c = rng.standard_normal((p, n))
            k = 0.15 * rng.standard_normal((m, n))
            while oracle.spectral_radius(a + b @ k) >= 0.9:
                k *= 0.5
            tau0 = 0.3 * rng.standard_normal(n)
            eps = float(np.abs(c).max() * rng.uniform(0.8, 1.6))
            spec = gaincap.SystemSpec(a, b, c, tau0, eps)
            self.inputs.append((spec, gaincap.Gain(k), a + b @ k))
        self.size = len(self.inputs)
        self.keys = list(range(self.size))
        self.warm_index = 0
        self._expected = {}

    def run(self, i):
        spec, gain, _ = self.inputs[i]
        return gaincap.analyze(spec, gain), gaincap.check_gain(spec, gain)

    def label(self, i):
        spec = self.inputs[i][0]
        return f"n={spec.n} m={spec.m} p={spec.p}"

    def digest(self, i, result):
        analysis, report = result
        d = _report_digest(report)
        d.update(
            controllable=analysis.controllable,
            observable=analysis.observable,
            radius=analysis.spectral_radius,
            inf_norm=analysis.inf_norm,
        )
        return d

    def check(self, i, d):
        spec, _, a_tilde = self.inputs[i]
        if i not in self._expected:
            starts = np.column_stack([spec.tau0, np.eye(spec.n)])
            self._expected[i] = (
                oracle.classify(a_tilde, spec.c, starts, spec.epsilon),
                _analysis_expected(spec.a, spec.b, spec.c, a_tilde),
            )
        classes, analysis = self._expected[i]
        failures = []
        if d["status"] != "determined":
            failures.append(f"status {d['status']} on a stable loop")
        failures += _membership_failures(classes, d["alpha"], d["betas"], d["admissible"])
        failures += _analysis_failures(analysis, d)
        if not oracle.close(d["inf_norm"], analysis["inf_norm"], 1e-12):
            failures.append(f"induced max-norm {d['inf_norm']}, expected {analysis['inf_norm']}")
        return failures


def _analysis_expected(a, b, c, a_tilde):
    """analyze's figures recomputed with numpy; a rank is None when it is
    too close to the program's elimination tolerance to call."""
    return {
        "radius": oracle.spectral_radius(a_tilde),
        "observable": oracle.rank_class(oracle.observability(a_tilde, c)),
        "controllable": None if b is None else oracle.rank_class(oracle.controllability(a, b)),
        "inf_norm": float(np.abs(a_tilde).sum(axis=1).max()),
    }


def _analysis_failures(expected, d):
    failures = []
    if not oracle.close(d["radius"], expected["radius"]):
        failures.append(f"spectral radius {d['radius']}, numpy {expected['radius']}")
    for key in ("observable", "controllable"):
        if expected[key] is not None and d[key] != expected[key]:
            failures.append(f"{key} {d[key]}, expected {expected[key]}")
    return failures


class Cli:
    """``gaincap.cli.main`` in process with stdout captured.

    Per fixture (ex1-ex8, ex10): ``determine --json``, ``check-gain`` and
    ``analyze``; ``region --grid 401`` on every two-state fixture; and one
    long ``simulate`` of ex1.  The seed draws the region windows and the
    simulated start.  The command order is fixed: it decides how the
    allocator reuses the large output buffers, and so the peak memory.
    """

    reference = staticmethod(mixed_kernel)
    REFERENCE_S = 0.0022
    FIXTURE_IDS = (1, 2, 3, 4, 5, 6, 7, 8, 10)
    GRID = 401
    SIM_STEPS = 20000
    QUERY_RUNS = 3
    SAMPLES = 64

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.problems = {}
        commands = []
        for fid in self.FIXTURE_IDS:
            path = FIXTURES / f"ex{fid}.json"
            self.problems[str(path)] = _fixture(path)
            commands += [
                ("determine", [str(path), "--json"]),
                ("check-gain", [str(path)]),
                ("analyze", [str(path)]),
            ]
            if self.problems[str(path)]["n"] == 2:
                lo = (-rng.uniform(1.5, 3.0, 2)).tolist()
                hi = rng.uniform(1.5, 3.0, 2).tolist()
                window = [f"--xmin={lo[0]!r}", f"--xmax={hi[0]!r}",
                          f"--ymin={lo[1]!r}", f"--ymax={hi[1]!r}"]
                commands.append(("region", [str(path), *window, "--grid", str(self.GRID)]))
        sim = str(FIXTURES / "ex1.json")
        beta = ",".join(repr(float(v)) for v in rng.normal(0.0, 0.5, 2))
        alpha = float(rng.uniform(0.5, 2.0))
        commands.append(
            ("simulate", [sim, f"--alpha={alpha!r}", f"--beta={beta}", f"--steps={self.SIM_STEPS}"])
        )
        # each query runs QUERY_RUNS times a batch: a single 2 ms command
        # scatters by a third, and these commands decide verdict_p50_ms
        queries = [cmd for cmd in commands if cmd[0] in ("determine", "check-gain", "analyze")]
        self.inputs = commands + queries * (self.QUERY_RUNS - 1)
        self.keys = list(range(len(commands))) + [commands.index(q) for q in queries] * (
            self.QUERY_RUNS - 1
        )
        self.size = len(self.inputs)
        self.warm_index = next(i for i, cmd in enumerate(self.inputs) if cmd[0] == "analyze")
        self.directions = rng.standard_normal((self.size, 3, BOUNDARY_DIRECTIONS))
        self.picks = rng.random((self.size, self.SAMPLES))
        self._expected = {}

    def run(self, i):
        command, args = self.inputs[i]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = gaincap.cli.main([command, *args])
            except SystemExit as exit_:  # argparse rejects bad usage this way
                code = exit_.code
        return code, out.getvalue()

    def label(self, i):
        command, args = self.inputs[i]
        return f"{command} {Path(args[0]).name}"

    def digest(self, i, result):
        code, text = result
        command, args = self.inputs[i]
        # the region and simulate outputs run to megabytes: read them without
        # copies, so that the benchmark's own memory stays out of peak_rss_mb
        d = {"code": code, "bytes": len(text) if text.isascii() else len(text.encode("utf-8"))}
        if command == "determine":
            doc = json.loads(text)
            d.update(status=doc["status"], k0=doc["k0"], rows=np.array(doc["constraint_rows"]))
        elif command == "check-gain":
            d.update(
                admissible=_field(text, r"^admissible: (yes|no)$") == "yes",
                alpha=re.search(r"^nominal start .*: inside the band$", text, re.M) is not None,
                betas=frozenset(int(j) for j in re.findall(r"^offset direction e(\d+): leaves", text, re.M)),
            )
        elif command == "analyze":
            ctrl = _field(text, r"^controllable: (yes|no|not evaluated)")
            d.update(
                controllable=None if ctrl == "not evaluated" else ctrl == "yes",
                observable=_field(text, r"^observable: (yes|no)$") == "yes",
                radius=float(_field(text, r"^spectral radius: (\S+)$")),
            )
        else:
            count = text.count("\n")
            picks = (self.picks[i] * (count - 1)).astype(int) + 1
            lines = _lines(text, picks)
            d.update(
                lines=count,
                header=text[: text.find("\n")],
                sample=[[float(v) for v in lines[k].split(",")] for k in picks],
            )
        return d

    def check(self, i, d):
        command, args = self.inputs[i]
        prob = self.problems[args[0]]
        a, c, eps = prob["a_tilde"], prob["c"], prob["epsilon"]
        failures = []
        if command == "determine":
            if d["code"] != 0 or d["status"] != "determined":
                failures.append(f"determine exit {d['code']}, status {d['status']}")
            bad = oracle.boundary_mismatches(a, c, d["rows"], eps, self.directions[i, : prob["n"]])
            if bad:
                failures.append(f"{bad} boundary points of the capacity set misclassified")
        elif command == "check-gain":
            key = self.keys[i]
            if key not in self._expected:
                starts = np.column_stack([prob["tau0"], np.eye(prob["n"])])
                self._expected[key] = oracle.classify(a, c, starts, eps)
            failures += _membership_failures(self._expected[key], d["alpha"], d["betas"], d["admissible"])
            if d["code"] != (0 if d["admissible"] else 3):
                failures.append(f"check-gain exit {d['code']} for admissible={d['admissible']}")
        elif command == "analyze":
            if d["code"] != 0:
                failures.append(f"analyze exit {d['code']}")
            failures += _analysis_failures(prob["analysis"], d)
        elif command == "region":
            failures += self._check_region(args, d, a, c, eps)
        else:
            failures += self._check_simulate(args, d, prob)
        return failures

    def _check_region(self, args, d, a, c, eps):
        if d["code"] != 0 or d["header"] != "x,y,inside" or d["lines"] != self.GRID**2 + 1:
            return [f"region exit {d['code']}, {d['lines']} lines"]
        bounds = [_option(args, flag) for flag in ("--xmin", "--xmax", "--ymin", "--ymax")]
        xs = np.linspace(bounds[0], bounds[1], self.GRID)
        ys = np.linspace(bounds[2], bounds[3], self.GRID)
        pts = np.array(d["sample"])
        on_grid = np.isin(pts[:, 0], xs).all() and np.isin(pts[:, 1], ys).all()
        classes = oracle.classify(a, c, pts[:, :2].T, eps)
        wrong = sum(not oracle.agrees(cls, inside) for cls, inside in zip(classes, pts[:, 2]))
        failures = [] if on_grid else ["region sample points are off the grid"]
        if wrong:
            failures.append(f"{wrong} of {len(pts)} sampled region cells misclassified")
        return failures

    def _check_simulate(self, args, d, prob):
        steps = int(_option(args, "--steps"))
        if d["code"] != 0 or d["header"] != "step,x1,x2,u1,u2,y1" or d["lines"] != steps + 2:
            return [f"simulate exit {d['code']}, {d['lines']} lines"]
        alpha = _option(args, "--alpha")
        beta = np.array([float(v) for v in _option(args, "--beta", str).split(",")])
        x0 = alpha * prob["tau0"] + beta
        a = prob["a"] + prob["b"] @ prob["k"]
        wrong = 0
        for row in d["sample"]:
            x = np.linalg.matrix_power(a, int(row[0])) @ x0
            want = np.concatenate([x, prob["k"] @ x, prob["c"] @ x])
            wrong += not np.allclose(row[1:], want, rtol=1e-9, atol=1e-12 * np.abs(x0).max())
        return [f"{wrong} sampled simulate rows differ from the rollout"] if wrong else []


def _lines(text, numbers):
    """The lines of ``text`` with the given 0-based numbers, by number."""
    found, pos, line = {}, 0, 0
    for target in sorted(set(int(k) for k in numbers)):
        while line < target:
            pos = text.index("\n", pos) + 1
            line += 1
        found[target] = text[pos : text.index("\n", pos)]
    return found


def _option(args, flag, kind=float):
    return kind(next(a.split("=", 1)[1] for a in args if a.startswith(flag + "=")))


def _field(text, pattern):
    match = re.search(pattern, text, re.M)
    return match.group(1) if match else None


def _fixture(path):
    """Problem file as arrays, read without gaincap; ``a_tilde`` is the
    closed loop the CLI uses (``A + B K`` when a gain is given)."""
    raw = json.loads(path.read_text())
    prob = {
        "n": raw["n"],
        "a": np.array(raw["A"], dtype=float),
        "b": np.array(raw["B"], dtype=float) if raw.get("B") is not None else None,
        "c": np.array(raw["C"], dtype=float),
        "k": np.array(raw["K"], dtype=float) if raw.get("K") is not None else None,
        "tau0": np.array(raw["tau0"], dtype=float),
        "epsilon": float(raw["epsilon"]),
    }
    if prob["k"] is not None:
        prob["a_tilde"] = prob["a"] + prob["b"] @ prob["k"]
    else:
        prob["a_tilde"] = np.array(raw["A_tilde"], dtype=float)
    prob["analysis"] = _analysis_expected(prob["a"], prob["b"], prob["c"], prob["a_tilde"])
    return prob


WORKLOADS = {"ladder": Ladder, "sweep": Sweep, "cli": Cli}
