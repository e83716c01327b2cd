"""Command-line front end.

Problem files are UTF-8 JSON describing one plant, band, and loop::

    {
      "n": 2, "m": 2, "p": 1,
      "A": [[0.9, 0.0], [0.6, 0.3]],
      "B": [[-1.5, 2.0], [1.0, -3.0]],
      "C": [[1.0, 1.0]],
      "K": [[0.32, 0.16], [0.24, 0.12]],
      "tau0": [0.3, 0.5],
      "epsilon": 1.4142135623730951,
      "options": {"max_iter": 200, "stop_tol": 1e-9, "horizon": 8}
    }

Either the gain ``K`` or the closed-loop matrix ``A_tilde`` must be present;
when both are given, ``A + B K`` must match ``A_tilde`` to 1e-9 entrywise.
``B`` and ``m`` may be omitted when no gain is given.  ``options`` and each
of its entries are optional (defaults: max_iter 200, stop_tol 1e-9, horizon
4n).

Commands: ``determine``, ``check-gain``, ``analyze``, ``region``,
``simulate``.  Exit codes: 0 success (admissible for check-gain), 1 usage or
input error, 2 iteration limit reached, 3 inadmissible gain, 141 stdout
closed before the output was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .capacity import (
    DETERMINED,
    CapacitySet,
    DeterminationError,
    Gain,
    SensitivityReport,
    SystemSpec,
    analyze,
    check_gain,
    closed_loop,
    determine,
    region_sample,
    simulate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LIMIT = 2
EXIT_INADMISSIBLE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that a closed pipe ended

CROSS_CHECK_TOL = 1e-9


class InputError(ValueError):
    """Malformed problem file or command arguments."""


@dataclass(frozen=True)
class Options:
    max_iter: int
    stop_tol: float
    horizon: int


@dataclass(frozen=True)
class Problem:
    """A parsed problem file: plant, optional gain, optional closed loop."""

    system: SystemSpec
    gain: Gain | None
    a_tilde: np.ndarray | None
    options: Options


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _row_cuts(raster: np.ndarray) -> list[tuple[int, list[int]]]:
    """Each raster row as its first cell's value and the columns where a
    cell differs from the cell on its left, found in one pass over the
    raster."""
    width = raster.shape[1] - 1
    # flat indices into the (rows, width) array of neighbour differences
    changes = np.flatnonzero(raster[:, 1:] != raster[:, :-1])
    cuts = (changes % width + 1).tolist()
    bounds = np.searchsorted(changes, np.arange(raster.shape[0] + 1) * width).tolist()
    return [
        (bit, cuts[lo:hi]) for bit, lo, hi in zip(raster[:, 0].tolist(), bounds, bounds[1:])
    ]


def _grid_row(
    x_text: list[str], row: tuple[int, list[int]], cells: tuple[tuple[str, str] | None, ...]
) -> str:
    """The text of one raster row given as in :func:`_row_cuts`.  Cell ``ix``
    with value ``bit`` is ``head + x_text[ix] + tail`` for ``(head, tail) =
    cells[bit]``, or nothing when ``cells[bit]`` is None; each run of equal
    cells is one ``str.join`` over the x texts."""
    bit, cuts = row
    bounds = [0, *cuts, len(x_text)]
    parts = []
    for start, stop in zip(bounds, bounds[1:]):
        cell = cells[bit]
        if cell is not None:
            head, tail = cell
            parts += [head, (tail + head).join(x_text[start:stop]), tail]
        bit = 1 - bit
    return "".join(parts)


def _require(data: dict, key: str):
    if key not in data:
        raise InputError(f"problem file is missing required field '{key}'")
    return data[key]


def _as_int(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"field '{key}' must be an integer")
    return value


def _floats(data, key: str, kind: str) -> np.ndarray:
    try:
        return np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise InputError(f"field '{key}' is not a numeric {kind}: {err}") from None


def _matrix(data, key: str, rows: int, cols: int) -> np.ndarray:
    m = _floats(data, key, "matrix")
    if m.ndim != 2 or m.shape != (rows, cols):
        raise InputError(
            f"field '{key}' must be a {rows}x{cols} matrix of row arrays"
        )
    if not np.all(np.isfinite(m)):
        raise InputError(f"field '{key}' contains non-finite entries")
    return m


def _max_iter(value: int, name: str) -> int:
    if value < 1:
        raise InputError(f"{name} must be at least 1")
    return value


def _stop_tol(value, name: str) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 <= value <= sys.float_info.max
    ):
        raise InputError(f"{name} must be a nonnegative finite number")
    return float(value)


KNOWN_FIELDS = {"n", "m", "p", "A", "B", "C", "K", "A_tilde", "tau0", "epsilon", "options"}
KNOWN_OPTIONS = {"max_iter", "stop_tol", "horizon"}


def parse_problem(data: dict) -> Problem:
    """Validate a decoded problem-file dictionary."""
    if not isinstance(data, dict):
        raise InputError("problem file must contain a JSON object")
    unknown = set(data) - KNOWN_FIELDS
    if unknown:
        raise InputError(f"unknown field(s): {', '.join(sorted(unknown))}")

    n = _as_int(_require(data, "n"), "n")
    p = _as_int(_require(data, "p"), "p")
    if n < 1 or p < 1:
        raise InputError("fields 'n' and 'p' must be positive")

    a = _matrix(_require(data, "A"), "A", n, n)
    c = _matrix(_require(data, "C"), "C", p, n)

    b = None
    m = None
    if data.get("B") is not None:
        if "m" not in data:
            raise InputError("field 'm' is required when 'B' is present")
        m = _as_int(data["m"], "m")
        if m < 1:
            raise InputError("field 'm' must be positive")
        b = _matrix(data["B"], "B", n, m)
    elif data.get("m") is not None:
        raise InputError("field 'm' is given but 'B' is missing")

    tau0 = _floats(_require(data, "tau0"), "tau0", "array")
    if tau0.ndim != 1 or tau0.shape[0] != n:
        raise InputError(f"field 'tau0' must be a flat array of length {n}")

    epsilon = _require(data, "epsilon")
    if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
        raise InputError("field 'epsilon' must be a number")
    if not 0 < epsilon <= sys.float_info.max:
        raise InputError("field 'epsilon' must be a positive finite number")

    gain = None
    if data.get("K") is not None:
        if b is None:
            raise InputError("field 'K' requires 'B' and 'm'")
        gain = Gain(_matrix(data["K"], "K", m, n))

    a_tilde = None
    if data.get("A_tilde") is not None:
        a_tilde = _matrix(data["A_tilde"], "A_tilde", n, n)

    if gain is None and a_tilde is None:
        raise InputError("one of 'K' or 'A_tilde' is required")

    try:
        system = SystemSpec(a, b, c, tau0, float(epsilon))
    except ValueError as err:
        raise InputError(str(err)) from None

    if gain is not None and a_tilde is not None:
        gap = float(np.max(np.abs(closed_loop(system, gain) - a_tilde)))
        if gap > CROSS_CHECK_TOL:
            raise InputError(
                "fields 'K' and 'A_tilde' disagree: max |A + B K - A_tilde| "
                f"= {gap:.3e} exceeds {CROSS_CHECK_TOL:g}"
            )

    raw_opts = data.get("options", {})
    if not isinstance(raw_opts, dict):
        raise InputError("field 'options' must be an object")
    unknown = set(raw_opts) - KNOWN_OPTIONS
    if unknown:
        raise InputError(f"unknown option(s): {', '.join(sorted(unknown))}")
    max_iter = _as_int(raw_opts.get("max_iter", 200), "options.max_iter")
    max_iter = _max_iter(max_iter, "option 'max_iter'")
    stop_tol = _stop_tol(raw_opts.get("stop_tol", 1e-9), "option 'stop_tol'")
    horizon = _as_int(raw_opts.get("horizon", 4 * n), "options.horizon")
    if horizon < n:
        raise InputError(f"option 'horizon' must be at least n = {n}")

    return Problem(
        system=system,
        gain=gain,
        a_tilde=a_tilde,
        options=Options(max_iter=max_iter, stop_tol=stop_tol, horizon=horizon),
    )


def load_problem(path: str) -> Problem:
    """Read and validate a problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read problem file: {err}") from None
    except UnicodeDecodeError as err:
        raise InputError(f"problem file is not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"problem file is not valid JSON: {err}") from None
    return parse_problem(data)


def problem_to_dict(problem: Problem) -> dict:
    """Serialize a problem back to the file schema (parse round-trips)."""
    sys_ = problem.system
    out: dict = {"n": sys_.n}
    if sys_.b is not None:
        out["m"] = sys_.b.shape[1]
    out["p"] = sys_.p
    out["A"] = sys_.a.tolist()
    if sys_.b is not None:
        out["B"] = sys_.b.tolist()
    out["C"] = sys_.c.tolist()
    if problem.gain is not None:
        out["K"] = problem.gain.k.tolist()
    if problem.a_tilde is not None:
        out["A_tilde"] = problem.a_tilde.tolist()
    out["tau0"] = sys_.tau0.tolist()
    out["epsilon"] = sys_.epsilon
    opts = problem.options
    out["options"] = {
        "max_iter": opts.max_iter,
        "stop_tol": opts.stop_tol,
        "horizon": opts.horizon,
    }
    return out


def _loop(problem: Problem) -> dict:
    """The loop keyword argument: the gain if present, otherwise a_tilde."""
    if problem.gain is not None:
        return {"gain": problem.gain}
    return {"a_tilde": problem.a_tilde}


def _limits(problem: Problem, args) -> dict:
    """The file's max_iter and stop_tol, overridden by --max-iter/--stop-tol."""
    limits = {"max_iter": problem.options.max_iter, "stop_tol": problem.options.stop_tol}
    if args.max_iter is not None:
        limits["max_iter"] = _max_iter(args.max_iter, "--max-iter")
    if args.stop_tol is not None:
        limits["stop_tol"] = _stop_tol(args.stop_tol, "--stop-tol")
    return limits


def _values_json(values: tuple[float, ...]) -> list:
    return [None if math.isinf(v) else v for v in values]


def _values_text(values: tuple[float, ...]) -> str:
    return " ".join("unbounded" if math.isinf(v) else _fmt(v) for v in values)


def _capacity_json(cap: CapacitySet) -> dict:
    return {
        "status": cap.status,
        "k0": cap.k0,
        "epsilon": cap.epsilon,
        "constraint_rows": cap.constraint_rows.tolist(),
        "iterations": [
            {"step": rec.step, "values": _values_json(rec.values), "stopped": rec.stopped}
            for rec in cap.history
        ],
    }


def cmd_determine(args) -> int:
    problem = load_problem(args.file)
    cap = determine(problem.system, **_loop(problem), **_limits(problem, args))
    if args.json:
        print(json.dumps(_capacity_json(cap), indent=2))
    else:
        print(f"status: {cap.status}")
        print(f"k0: {'-' if cap.k0 is None else cap.k0}")
        print(f"epsilon: {_fmt(cap.epsilon)}")
        print("constraint rows:")
        for row in cap.constraint_rows:
            print("  " + " ".join(_fmt(v) for v in row))
        print("iteration maxima:")
        for rec in cap.history:
            print(f"  k={rec.step}: {_values_text(rec.values)}")
    return EXIT_OK if cap.status == DETERMINED else EXIT_LIMIT


def _report_json(report: SensitivityReport) -> dict:
    viol = report.alpha_violation
    return {
        "admissible": report.admissible,
        "certified": report.capacity.status == DETERMINED,
        "alpha_tolerable": report.alpha_tolerable,
        "alpha_violation": None if viol is None else asdict(viol),
        "beta_violations": [asdict(bv) for bv in report.beta_violations],
        "capacity": {
            "status": report.capacity.status,
            "k0": report.capacity.k0,
            "epsilon": report.capacity.epsilon,
        },
    }


def cmd_check_gain(args) -> int:
    problem = load_problem(args.file)
    report = check_gain(problem.system, **_loop(problem), **_limits(problem, args))
    cap = report.capacity
    if args.json:
        print(json.dumps(_report_json(report), indent=2))
    else:
        print(f"admissible: {'yes' if report.admissible else 'no'}")
        if report.alpha_tolerable:
            print("nominal start (alpha direction): inside the band")
        else:
            v = report.alpha_violation
            print(
                "nominal start (alpha direction): leaves the band at step "
                f"{v.step}, constraint {v.constraint}, magnitude {_fmt(v.magnitude)}"
            )
        if report.beta_violations:
            for bv in report.beta_violations:
                print(
                    f"offset direction e{bv.index}: leaves the band at step "
                    f"{bv.first_violation_step}, magnitude {_fmt(bv.magnitude)}"
                )
        else:
            print("offset directions: all inside the band")
        if cap.status == DETERMINED:
            print(f"capacity set: determined, k0 = {cap.k0}")
        else:
            print(
                f"capacity set: iteration limit after {len(cap.history)} steps; "
                "verdict uses the outer truncation"
            )
    has_violation = (not report.alpha_tolerable) or report.beta_violations
    if has_violation:
        return EXIT_INADMISSIBLE
    if cap.status != DETERMINED:
        return EXIT_LIMIT
    return EXIT_OK


def cmd_analyze(args) -> int:
    problem = load_problem(args.file)
    rep = analyze(problem.system, **_loop(problem), horizon=problem.options.horizon)
    if args.json:
        print(json.dumps(asdict(rep), indent=2))
    else:
        if rep.controllable is None:
            print("controllable: not evaluated (no input map in file)")
        else:
            print(f"controllable: {'yes' if rep.controllable else 'no'}")
        print(f"observable: {'yes' if rep.observable else 'no'}")
        print(f"spectral radius: {_fmt(rep.spectral_radius)}")
        print(f"induced max-norm: {_fmt(rep.inf_norm)}")
        print(f"norm guarantee (contraction): {'yes' if rep.norm_guarantee else 'no'}")
        print(
            "structural guarantee (controllable + observable + stable): "
            f"{'yes' if rep.structural_guarantee else 'no'}"
        )
        if rep.decay_index is None:
            print("output-row decay index: none within horizon")
        else:
            print(f"output-row decay index: {rep.decay_index}")
    return EXIT_OK


def _svg(rows: list[tuple[int, list[int]]], xs: np.ndarray, ys: np.ndarray, tau0: np.ndarray):
    """Self-contained SVG as text chunks of whole lines, one chunk per raster
    row given as in :func:`_row_cuts`: member cells filled, key vectors
    marked."""
    size = 640.0
    margin = 40.0
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    y_lo, y_hi = float(ys[0]), float(ys[-1])

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * size

    def py(y: float) -> float:
        return margin + (y_hi - y) / (y_hi - y_lo) * size

    cell = size / (len(xs) - 1)
    full = f"{size + 2 * margin:.0f}"
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{full}" height="{full}" '
        f'viewBox="0 0 {full} {full}">\n'
        f'<rect x="0" y="0" width="{full}" height="{full}" fill="white"/>\n'
        f'<rect x="{margin}" y="{margin}" width="{size}" height="{size}" '
        'fill="none" stroke="#888"/>\n'
    )
    # cell corners in pixels, formatted once per column and once per row
    x_text = [f"{px(x) - cell / 2:.2f}" for x in xs.tolist()]
    y_text = [f"{py(y) - cell / 2:.2f}" for y in ys.tolist()]
    size_text = f'width="{cell:.2f}" height="{cell:.2f}" fill="#7fbf7f"/>'
    for y, row in zip(y_text, rows):
        yield _grid_row(x_text, row, (None, ('<rect x="', f'" y="{y}" {size_text}\n')))
    markers = [("tau0", float(tau0[0]), float(tau0[1])), ("e1", 1.0, 0.0), ("e2", 0.0, 1.0)]
    for label, mx, my in markers:
        if x_lo <= mx <= x_hi and y_lo <= my <= y_hi:
            cx, cy = px(mx), py(my)
            yield (
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="#222"/>\n'
                f'<text x="{cx + 6:.2f}" y="{cy - 6:.2f}" font-size="14" '
                f'font-family="sans-serif" fill="#222">{label}</text>\n'
            )
    yield "</svg>\n"


def cmd_region(args) -> int:
    problem = load_problem(args.file)
    if problem.system.n != 2:
        raise InputError(
            f"region rendering requires a two-state system, file has n = {problem.system.n}"
        )
    if args.grid < 2:
        raise InputError("--grid must be at least 2")
    if not all(map(math.isfinite, (args.xmin, args.xmax, args.ymin, args.ymax))):
        raise InputError("--xmin, --xmax, --ymin and --ymax must be finite numbers")
    if not (args.xmin < args.xmax) or not (args.ymin < args.ymax):
        raise InputError("ranges must satisfy xmin < xmax and ymin < ymax")
    if not (math.isfinite(args.xmax - args.xmin) and math.isfinite(args.ymax - args.ymin)):
        raise InputError("xmax - xmin and ymax - ymin must be within the floating-point range")
    cap = determine(problem.system, **_loop(problem), **_limits(problem, args))
    raster = region_sample(cap, (args.xmin, args.xmax), (args.ymin, args.ymax), args.grid)
    xs = np.linspace(args.xmin, args.xmax, args.grid)
    ys = np.linspace(args.ymin, args.ymax, args.grid)
    rows = _row_cuts(raster)
    if args.json:
        print(
            json.dumps(
                {
                    "status": cap.status,
                    "xs": xs.tolist(),
                    "ys": ys.tolist(),
                    "raster": raster.astype(int).tolist(),
                },
                indent=2,
            )
        )
    else:
        x_text = [_fmt(x) for x in xs.tolist()]
        write = sys.stdout.write
        write("x,y,inside\n")
        for y, row in zip(map(_fmt, ys.tolist()), rows):
            write(_grid_row(x_text, row, (("", f",{y},0\n"), ("", f",{y},1\n"))))
    if args.svg:
        svg = _svg(rows, xs, ys, problem.system.tau0)
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.writelines(svg)
        except OSError as err:
            raise InputError(f"cannot write SVG file: {err}") from None
    return EXIT_OK if cap.status == DETERMINED else EXIT_LIMIT


def cmd_simulate(args) -> int:
    problem = load_problem(args.file)
    try:
        beta = [float(part) for part in args.beta.split(",")] if args.beta else []
    except ValueError:
        raise InputError(f"--beta must be comma-separated numbers, got '{args.beta}'")
    if not all(map(math.isfinite, [args.alpha, *beta])):
        raise InputError("--alpha and --beta must be finite numbers")
    n = problem.system.n
    if len(beta) != n:
        raise InputError(f"--beta must have {n} components, got {len(beta)}")
    if args.steps < 0:
        raise InputError("--steps must be nonnegative")
    traj = simulate(
        problem.system, **_loop(problem), alpha=args.alpha, beta=beta, steps=args.steps
    )
    if args.json:
        print(
            json.dumps(
                {
                    "states": traj.states.tolist(),
                    "inputs": None if traj.inputs is None else traj.inputs.tolist(),
                    "outputs": traj.outputs.tolist(),
                },
                indent=2,
            )
        )
        return EXIT_OK
    blocks = [("x", traj.states), ("u", traj.inputs), ("y", traj.outputs)]
    blocks = [(name, values) for name, values in blocks if values is not None]
    table = np.hstack([values for _, values in blocks])
    header = ["step"] + [f"{name}{i + 1}" for name, vals in blocks for i in range(vals.shape[1])]
    write = sys.stdout.write
    write(",".join(header) + "\n")
    # a settled loop repeats its last row; compare bits, not values, so that
    # 0.0 and -0.0 keep their own text
    bits = table.view(np.uint64)
    changed = np.ones(len(table), dtype=bool)
    changed[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    template = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for i, new in enumerate(changed.tolist()):
        if new:
            text = template % tuple(table[i].tolist())
        write(f"{i},{text}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the exit-code contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _add_command(commands, name: str, func, summary: str, *, limits: bool):
    """Register a subcommand that reads a problem file and takes --json.  With
    ``limits`` it also takes --max-iter and --stop-tol, which only the
    commands that run the fixpoint search read."""
    sub = commands.add_parser(name, help=summary)
    sub.add_argument("file", help="problem file (JSON)")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if limits:
        sub.add_argument(
            "--max-iter", type=int, default=None, help="override the file's iteration cap"
        )
        sub.add_argument(
            "--stop-tol", type=float, default=None, help="override the file's stop tolerance"
        )
    sub.set_defaults(func=func)
    return sub


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``gaincap`` command line."""
    parser = _Parser(
        prog="gaincap",
        description="Capacity sets of state-feedback gains under output bands.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_command(commands, "determine", cmd_determine, "run the fixpoint search", limits=True)
    _add_command(commands, "check-gain", cmd_check_gain, "decide gain admissibility", limits=True)
    _add_command(commands, "analyze", cmd_analyze, "structural precondition report", limits=False)

    reg = _add_command(
        commands, "region", cmd_region, "rasterize a planar capacity set", limits=True
    )
    reg.add_argument("--xmin", type=float, required=True)
    reg.add_argument("--xmax", type=float, required=True)
    reg.add_argument("--ymin", type=float, required=True)
    reg.add_argument("--ymax", type=float, required=True)
    reg.add_argument("--grid", type=int, required=True, help="lattice points per axis")
    reg.add_argument("--svg", default=None, help="also write an SVG to this path")

    sim = _add_command(
        commands, "simulate", cmd_simulate, "propagate a disturbed start", limits=False
    )
    sim.add_argument("--alpha", type=float, required=True, help="nominal-state scale")
    sim.add_argument("--beta", required=True, help="comma-separated offset components")
    sim.add_argument("--steps", type=int, required=True, help="number of steps")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call.  Parsing
    leaves no state in it, so every later call in the process reuses it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code; bad usage raises
    ``SystemExit(1)``.  The argument parser is built once per process and
    shared by every call."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OverflowError) as err:
        print(f"gaincap: error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except DeterminationError as err:
        print(
            f"gaincap: determination failed at step {err.step}, "
            f"constraint {err.constraint}: {err}",
            file=sys.stderr,
        )
        return EXIT_INPUT


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); point it at devnull so
        # that the interpreter's flush at shutdown cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
