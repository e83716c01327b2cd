import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaincap.cli
from gaincap import Gain, SystemSpec, determine, region_sample, simulate
from gaincap.cli import (
    EXIT_INADMISSIBLE,
    EXIT_INPUT,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_PIPE,
    InputError,
    load_problem,
    main,
    parse_problem,
    problem_to_dict,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def load_fixture_dict(name: str) -> dict:
    with open(fixture(name), encoding="utf-8") as fh:
        return json.load(fh)


def ex1_with(**changes) -> str:
    """ex1's problem file as text, with each keyword field set to its value,
    or removed when the value is None."""
    data = load_fixture_dict("ex1")
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    return json.dumps(data)


# ---------------------------------------------------------------- parsing


def test_round_trip():
    problem = load_problem(fixture("ex1"))
    serialized = problem_to_dict(problem)
    again = problem_to_dict(parse_problem(serialized))
    assert serialized == again


def test_round_trip_without_gain():
    problem = load_problem(fixture("ex6"))
    assert problem.gain is None
    serialized = problem_to_dict(problem)
    assert problem_to_dict(parse_problem(serialized)) == serialized


def test_cross_check_accepts_consistent_tables():
    for name in ("ex1", "ex2", "ex3", "ex4", "ex5"):
        problem = load_problem(fixture(name))
        assert problem.gain is not None
        assert problem.a_tilde is not None


def test_cross_check_rejects_perturbed_loop():
    data = load_fixture_dict("ex2")
    data["A_tilde"][0][0] += 1e-3
    with pytest.raises(InputError, match="disagree"):
        parse_problem(data)


def test_missing_field():
    data = load_fixture_dict("ex1")
    del data["tau0"]
    with pytest.raises(InputError, match="tau0"):
        parse_problem(data)


def test_nonpositive_epsilon_names_field():
    data = load_fixture_dict("ex1")
    data["epsilon"] = 0.0
    with pytest.raises(InputError, match="epsilon"):
        parse_problem(data)
    data["epsilon"] = -1.0
    with pytest.raises(InputError, match="epsilon"):
        parse_problem(data)
    # json.load reads integer digits exactly, beyond the range of a float
    data["epsilon"] = 10**400
    with pytest.raises(InputError, match="epsilon"):
        parse_problem(data)


def test_dimension_mismatch():
    data = load_fixture_dict("ex1")
    data["C"] = [[1.0, 1.0, 1.0]]
    with pytest.raises(InputError, match="'C'"):
        parse_problem(data)
    data = load_fixture_dict("ex1")
    for bad in (["x", 1], [10**400, 1]):
        data["tau0"] = bad
        with pytest.raises(InputError, match="'tau0'"):
            parse_problem(data)


def test_gain_requires_input_map():
    data = load_fixture_dict("ex1")
    del data["B"]
    del data["m"]
    with pytest.raises(InputError, match="'K' requires"):
        parse_problem(data)


def test_loop_description_required():
    data = load_fixture_dict("ex6")
    del data["A_tilde"]
    with pytest.raises(InputError, match="'K' or 'A_tilde'"):
        parse_problem(data)


def test_unknown_field_rejected():
    data = load_fixture_dict("ex1")
    data["extra"] = 1
    with pytest.raises(InputError, match="extra"):
        parse_problem(data)


def test_bad_options():
    data = load_fixture_dict("ex1")
    data["options"] = {"max_iter": 0}
    with pytest.raises(InputError, match="max_iter"):
        parse_problem(data)
    data["options"] = {"mystery": 1}
    with pytest.raises(InputError, match="mystery"):
        parse_problem(data)
    # json.load accepts Infinity and NaN; an infinite tolerance would
    # certify any loop at k0 = 0
    for bad in (math.inf, math.nan, True, -1.0, 10**400):
        data["options"] = {"stop_tol": bad}
        with pytest.raises(InputError, match="stop_tol"):
            parse_problem(data)


def test_defaults_applied():
    problem = load_problem(fixture("ex5"))
    assert problem.options.max_iter == 200
    assert problem.options.stop_tol == 1e-9
    assert problem.options.horizon == 12  # 4n



def test_problem_file_numbers_must_be_json_numbers():
    # a string used to pass as the number it spells in an array, and None or
    # a list in place of a number escaped as TypeError
    cases = [
        ("tau0", ["0.3", "0.5"], "field 'tau0' must be an array of real numbers"),
        ("tau0", [{}, 0.5], "field 'tau0' must be an array of real numbers"),
        ("A", [["0.9", 0.0], [0.6, 0.3]], "field 'A' must be an array of real numbers"),
        ("A", [[0.9, 0.0], [0.6]], "field 'A' must be an array of real numbers"),
        ("A", [[True, 0], [0, True]], "field 'A' must be an array of real numbers"),
        ("K", [[10**400, 0.16], [0.24, 0.12]], "field 'K' contains non-finite entries"),
        ("epsilon", "1.4", "field 'epsilon' must be a positive finite number"),
        ("epsilon", None, "field 'epsilon' must be a positive finite number"),
        ("epsilon", [1.4], "field 'epsilon' must be a positive finite number"),
        ("n", "2", "field 'n' must be an integer"),
        ("n", 0, "field 'n' must be positive"),
        ("p", 0, "field 'p' must be positive"),
        ("m", 2.0, "field 'm' must be an integer"),
        ("options", {"stop_tol": "1e-9"}, "option 'stop_tol' must be a nonnegative finite number"),
        ("options", {"horizon": None}, "option 'horizon' must be an integer"),
        ("options", {"max_iter": [5]}, "option 'max_iter' must be an integer"),
    ]
    for key, value, message in cases:
        data = load_fixture_dict("ex1")
        data[key] = value
        with pytest.raises(InputError, match=f"^{message}$"):
            parse_problem(data)


def test_bad_file_or_flag_exits_1_without_traceback(tmp_path, capsys):
    data = load_fixture_dict("ex1")
    data["tau0"] = ["0.3", "0.5"]
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    window = ["--xmin=-2", "--xmax=2", "--ymin=-2", "--ymax=2"]
    for argv, message in (
        (["check-gain", str(path)], "field 'tau0' must be an array of real numbers"),
        (["determine", fixture("ex1"), "--stop-tol", "nan"],
         "--stop-tol must be a nonnegative finite number"),
        (["determine", fixture("ex1"), "--max-iter", "0"], "--max-iter must be at least 1"),
        (["region", fixture("ex1"), *window, "--grid", "1"], "--grid must be at least 2"),
        (["region", fixture("ex1"), "--xmin=nan", "--xmax=2", "--ymin=-2", "--ymax=2",
          "--grid", "3"], "--xmin must be a finite number"),
        (["simulate", fixture("ex1"), "--alpha=inf", "--beta=0,0", "--steps", "2"],
         "alpha must be a finite number"),
        (["simulate", fixture("ex1"), "--alpha=1", "--beta=0,nan", "--steps", "2"],
         "beta contains non-finite entries"),
        (["simulate", fixture("ex1"), "--alpha=1", "--beta=0,0", "--steps", "-1"],
         "steps must be nonnegative"),
        # a count past sys.maxsize used to reach numpy, whose error named no flag
        (["region", fixture("ex1"), *window, "--grid", str(10**400)],
         f"--grid must be at most {sys.maxsize}"),
        (["simulate", fixture("ex1"), "--alpha=1", "--beta=0,0", "--steps", str(10**400)],
         f"steps must be at most {sys.maxsize}"),
        (["region", fixture("ex1"), "--xmin=2", "--xmax=2", "--ymin=-2", "--ymax=2",
          "--grid", "3"], "ranges must satisfy xmin < xmax and ymin < ymax"),
    ):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gaincap: error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "problem file must contain a JSON object"),
    ("{", "problem file is not valid JSON: "
          "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (ex1_with(m=None), "field 'm' is required when 'B' is present"),
    (ex1_with(B=None, K=None), "field 'm' is given but 'B' is missing"),
    (ex1_with(tau0=[0.3]), "field 'tau0' must be a flat array of length 2"),
    (ex1_with(options=[]), "field 'options' must be an object"),
])
def test_bad_problem_file_exits_input(text, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gaincap: error: {message}\n"


@pytest.mark.parametrize("command, options", [
    (["simulate", "--alpha=1", "--beta=0,0", "--steps", str(10**15)], {}),
    (["analyze"], {"horizon": 10**15}),
    (["region", "--xmin=-2", "--xmax=2", "--ymin=-2", "--ymax=2", "--grid", str(10**15)], {}),
])
def test_count_past_memory_exits_input(command, options, tmp_path, capsys):
    # a count whose first array exceeds any address space is refused by the
    # allocator at once, so nothing is allocated; numpy's MemoryError is
    # one error line, with no traceback
    path = tmp_path / "count.json"
    path.write_text(ex1_with(options=options), encoding="utf-8")
    assert main([command[0], str(path), *command[1:]]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gaincap: error: ") and captured.err.count("\n") == 1

# ---------------------------------------------------------------- determine


def test_determine_text(capsys):
    code = main(["determine", fixture("ex2")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "status: determined" in out
    assert "k0: 1" in out
    assert "unbounded" in out  # the one-row band leaves the next row free


def test_determine_json(capsys):
    code = main(["determine", fixture("ex2"), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["status"] == "determined"
    assert report["k0"] == 1
    assert report["iterations"][0]["values"] == [None, None]
    assert report["iterations"][1]["values"] == pytest.approx([0.12, 0.12], abs=1e-9)
    assert np.allclose(report["constraint_rows"], [[-1.0, 1.0], [-1.5, -0.4]])


def test_determine_iteration_limit_exit(capsys):
    code = main(["determine", fixture("ex9"), "--max-iter", "5", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_LIMIT
    assert report["status"] == "iteration_limit"
    assert report["k0"] is None
    assert len(report["iterations"]) == 5


def test_determine_max_iter_flag_overrides_file(capsys):
    code = main(["determine", fixture("ex1"), "--max-iter", "1"])
    assert code == EXIT_LIMIT


def test_determine_stop_tol_flag(capsys):
    # a huge tolerance accepts the very first bounded pass
    code = main(["determine", fixture("ex10"), "--stop-tol", "100", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["k0"] == 0


def test_determine_bad_max_iter_flag(capsys):
    code = main(["determine", fixture("ex1"), "--max-iter", "0"])
    assert code == EXIT_INPUT
    assert "gaincap: error: --max-iter" in capsys.readouterr().err


def test_check_gain_bad_stop_tol_flag(capsys):
    code = main(["check-gain", fixture("ex1"), "--stop-tol", "-1"])
    assert code == EXIT_INPUT
    assert "gaincap: error: --stop-tol" in capsys.readouterr().err


def test_determine_oversized_integer_entry(tmp_path, capsys):
    data = load_fixture_dict("ex1")
    data["A"][0][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["determine", str(path)])
    assert code == EXIT_INPUT
    assert "gaincap: error: field 'A'" in capsys.readouterr().err


def test_determine_missing_file(capsys):
    code = main(["determine", str(FIXTURES / "nope.json")])
    assert code == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_determine_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"n": 1, "note": "caf\u00e9"}'.encode("latin-1"))
    code = main(["determine", str(path)])
    assert code == EXIT_INPUT
    assert "gaincap: error: problem file is not UTF-8" in capsys.readouterr().err


def overflowing_problem(tmp_path) -> str:
    # the output rows C A~^k grow like 1e200^k and overflow at step 2
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "n": 2, "p": 1, "A": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 1.0]],
        "A_tilde": [[1e200, 0.0], [0.0, 0.5]], "tau0": [0.1, 0.1], "epsilon": 1.0,
    }), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["determine", "check-gain"])
def test_overflowing_rows_exit_input(command, tmp_path, capsys):
    code = main([command, overflowing_problem(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == (
        "gaincap: determination failed at step 1, constraint 1: "
        "output row 1 overflowed the floating-point range\n"
    )


def test_subnormal_band_row_exits_input(tmp_path, capsys):
    # the row C A~ = [0, 1e-309] has a subnormal scale, so epsilon over it
    # overflows and the LP of step 1 has no finite tableau
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps({
        "n": 2, "p": 1, "A": [[0, 1e-309], [0, 1]], "A_tilde": [[0, 1e-309], [0, 1]],
        "C": [[1, 0]], "tau0": [0.1, 0.1], "epsilon": 1,
    }), encoding="utf-8")
    code = main(["determine", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == (
        "gaincap: determination failed at step 1, constraint 1: LP solver gave up: "
        "epsilon over a band row's scale left the floating-point range\n"
    )


def test_overflowing_maximum_exits_input(tmp_path, capsys):
    # step 0 maximizes C A~ = [1e300, 0] over |x_1| <= 1e10: the maximum 1e310
    # has no float value, and numpy's overflow warning must not escape
    path = tmp_path / "maximum.json"
    path.write_text(json.dumps({
        "n": 2, "p": 1, "A": [[1e300, 0], [0, 0]], "A_tilde": [[1e300, 0], [0, 0]],
        "C": [[1, 0]], "tau0": [0.1, 0.1], "epsilon": 1e10,
    }), encoding="utf-8")
    code = main(["determine", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == (
        "gaincap: determination failed at step 0, constraint 1: LP solver gave up: "
        "the maximum left the floating-point range\n"
    )


@pytest.mark.parametrize("args, message", [
    (["analyze"], "output rows left the floating-point range at step 2"),
    (["simulate", "--alpha", "1", "--beta", "0,0", "--steps", "3"],
     "the trajectory left the floating-point range at step 2"),
])
def test_overflow_in_analyze_and_simulate_exits_input(args, message, tmp_path, capsys):
    code = main([args[0], overflowing_problem(tmp_path), *args[1:]])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == f"gaincap: error: {message}\n"


def test_analyze_norm_overflow_exits_input(tmp_path, capsys):
    # finite entries whose row sum is not: the norm has no float value, so
    # the report must not print Infinity (which is not JSON) and exit 0
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "n": 2, "p": 1, "A": [[1e308, 1e308], [0, 0]], "A_tilde": [[1e308, 1e308], [0, 0]],
        "C": [[0, 1]], "tau0": [0.1, 0.1], "epsilon": 1,
    }), encoding="utf-8")
    code = main(["analyze", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == "gaincap: error: the induced max-norm left the floating-point range\n"


def test_closed_loop_overflow_exits_input(tmp_path, capsys):
    # A + B K of a finite gain leaves the float range: the error names the
    # closed loop, with no numpy warning, before any fixpoint step
    path = tmp_path / "gain.json"
    path.write_text(json.dumps({
        "n": 2, "m": 2, "p": 1, "A": [[0.9, 0], [0.6, 0.3]], "B": [[1, 2], [3, 1]],
        "C": [[1, 1]], "K": [[1e308, 1e308], [1e308, 1e308]], "tau0": [0.3, 0.5], "epsilon": 1,
    }), encoding="utf-8")
    for command in ("determine", "check-gain", "analyze"):
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == (
            "gaincap: error: the closed loop a + b k left the floating-point range\n"
        )


def test_closed_stdout_exits_quietly():
    # 5000 steps are far more than a pipe buffer holds, so the writes after
    # the reader has gone fail; so would the interpreter's flush at exit
    with subprocess.Popen(
        [sys.executable, "-m", "gaincap.cli", "simulate", fixture("ex1"),
         "--alpha", "0.7", "--beta", "0.2,-0.3", "--steps", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    ) as proc:
        assert proc.stdout.readline() == b"step,x1,x2,u1,u2,y1\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_PIPE
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == ""


# ---------------------------------------------------------------- check-gain


def test_check_gain_admissible(capsys):
    code = main(["check-gain", fixture("ex1"), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["admissible"] is True
    assert report["alpha_tolerable"] is True
    assert report["beta_violations"] == []
    assert report["capacity"]["k0"] == 2


def test_check_gain_offset_violation(capsys):
    code = main(["check-gain", fixture("ex6"), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INADMISSIBLE
    assert report["admissible"] is False
    assert report["alpha_tolerable"] is True
    (bv,) = report["beta_violations"]
    assert bv["index"] == 1
    assert bv["first_violation_step"] == 1
    assert bv["magnitude"] == pytest.approx(1.89)


def test_check_gain_nominal_violation(capsys):
    code = main(["check-gain", fixture("ex7")])
    out = capsys.readouterr().out
    assert code == EXIT_INADMISSIBLE
    assert "admissible: no" in out
    assert "leaves the band at step 0" in out


def test_check_gain_uncertified(capsys):
    # under a tiny iteration cap no violation is found, but the set is only
    # an outer truncation, so the verdict cannot be a clean pass
    code = main(["check-gain", fixture("ex1"), "--max-iter", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_LIMIT
    assert report["certified"] is False
    assert report["admissible"] is True


@pytest.mark.parametrize("name, max_iter, exit_code", [
    ("ex1", 1, EXIT_LIMIT), ("ex9", 3, EXIT_INADMISSIBLE),
])
def test_check_gain_text_names_the_iteration_limit(name, max_iter, exit_code, capsys):
    code = main(["check-gain", fixture(name), "--max-iter", str(max_iter)])
    out = capsys.readouterr().out
    assert code == exit_code
    assert out.splitlines()[-1] == (
        f"capacity set: iteration limit after {max_iter} steps; verdict uses the outer truncation"
    )


# ---------------------------------------------------------------- analyze


@pytest.mark.parametrize("name, b, lines", [
    ("ex1", None, ["controllable: yes", "output-row decay index: 1"]),
    ("ex6", [[0.0, 0.0], [0.0, 0.0]],
     ["controllable: no", "output-row decay index: none within horizon"]),
])
def test_analyze_text(name, b, lines, tmp_path, capsys):
    data = load_fixture_dict(name)
    data["B"] = b or data["B"]
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert (out[0], out[-1]) == tuple(lines)


def test_analyze_json(capsys):
    code = main(["analyze", fixture("ex1"), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["controllable"] is True
    assert report["observable"] is True
    assert report["spectral_radius"] == pytest.approx(0.9)
    assert report["inf_norm"] == pytest.approx(0.9)
    assert report["norm_guarantee"] and report["structural_guarantee"]
    assert report["decay_index"] == 1


def test_analyze_marginal(capsys):
    code = main(["analyze", fixture("ex4"), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["spectral_radius"] == pytest.approx(1.0)
    assert report["structural_guarantee"] is False
    assert report["decay_index"] is None


def test_analyze_without_input_map(tmp_path, capsys):
    data = load_fixture_dict("ex6")
    del data["B"]
    del data["m"]
    path = tmp_path / "nob.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "not evaluated" in out


# ---------------------------------------------------------------- region


def test_region_csv(capsys):
    code = main([
        "region", fixture("ex1"),
        "--xmin", "-2", "--xmax", "2", "--ymin", "-2", "--ymax", "2", "--grid", "3",
    ])
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert code == EXIT_OK
    assert lines[0] == "x,y,inside"
    assert len(lines) == 1 + 9
    assert "0,0,1" in lines
    assert lines[1] == "-2,-2,0"
    # y varies in the outer loop
    assert lines[2] == "0,-2,0"


def test_region_svg(tmp_path, capsys):
    svg_path = tmp_path / "region.svg"
    code = main([
        "region", fixture("ex1"),
        "--xmin", "-2", "--xmax", "2", "--ymin", "-2", "--ymax", "2",
        "--grid", "21", "--svg", str(svg_path),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    text = svg_path.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert "tau0" in text and "e1" in text and "e2" in text
    assert "<script" not in text


def test_region_svg_unwritable_path(tmp_path, capsys):
    svg_path = tmp_path / "missing-dir" / "region.svg"
    code = main([
        "region", fixture("ex1"),
        "--xmin", "-2", "--xmax", "2", "--ymin", "-2", "--ymax", "2",
        "--grid", "3", "--svg", str(svg_path),
    ])
    assert code == EXIT_INPUT
    assert "gaincap: error: cannot write SVG file" in capsys.readouterr().err
    assert not svg_path.exists()


def test_region_exact_bytes(tmp_path, capsys):
    # pins every byte of the CSV and the SVG; the window's non-round bounds
    # make each x, y and pixel coordinate show all of its digits
    svg_path = tmp_path / "region.svg"
    code = main([
        "region", fixture("ex1"), "--xmin=-2.3", "--xmax=2.1", "--ymin=-1.9", "--ymax=2.7",
        "--grid", "7", "--svg", str(svg_path),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "77e4c843b7e85094e01365e048a4989251b009409b64f6ddf22452f40eb96ddc"
    )
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == (
        "22b4e8167af1fe06d692227757ed3b29be3b9a856efc8663a699d7ea474f893a"
    )


# windows on ex1's set, a slanted strip about |x| <= 1.3, |x + y| <= 1.4: all
# inside and all outside rows, rows whose outside runs touch both edges, and
# rows with an inside run on the left edge and an outside run on the right
REGION_WINDOWS = [(-0.5, 0.5, -3.0, 3.0), (-3.0, 3.0, -1.0, 1.0), (-0.5, 3.0, -2.0, 0.4)]


def library_problem(path: str):
    """A problem file read straight into library objects, without the CLI:
    the system and the loop keyword the CLI would pass (the gain if given)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    system = SystemSpec(data["A"], data.get("B"), data["C"], data["tau0"], data["epsilon"])
    if data.get("K") is not None:
        return system, {"gain": Gain(data["K"])}
    return system, {"a_tilde": data["A_tilde"]}


def region_reference(window, grid, raster=None):
    """The CSV lines and SVG member-cell lines of ``region``, one cell at a
    time, for ex1's raster or the one given."""
    x_lo, x_hi, y_lo, y_hi = window
    if raster is None:
        system, loop = library_problem(fixture("ex1"))
        cap = determine(system, **loop)
        raster = region_sample(cap, (x_lo, x_hi), (y_lo, y_hi), grid)
    xs = np.linspace(x_lo, x_hi, grid).tolist()
    ys = np.linspace(y_lo, y_hi, grid).tolist()
    csv = ["x,y,inside"]
    rects = []
    cell = 640.0 / (grid - 1)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            csv.append("%.17g,%.17g,%d" % (x, y, raster[iy, ix]))
            if raster[iy, ix]:
                left = 40.0 + (x - x_lo) / (x_hi - x_lo) * 640.0 - cell / 2
                top = 40.0 + (y_hi - y) / (y_hi - y_lo) * 640.0 - cell / 2
                rects.append(
                    f'<rect x="{left:.2f}" y="{top:.2f}" '
                    f'width="{cell:.2f}" height="{cell:.2f}" fill="#7fbf7f"/>'
                )
    return raster, csv, rects


def test_region_matches_per_cell_reference(tmp_path, capsys):
    kinds = set()
    for window in REGION_WINDOWS:
        for grid in (2, 9):
            raster, csv, rects = region_reference(window, grid)
            kinds.update(
                "inside" if row.all() else "outside" if not row.any() else "mixed"
                for row in raster
            )
            svg_path = tmp_path / "region.svg"
            bounds = dict(zip(("--xmin", "--xmax", "--ymin", "--ymax"), window))
            code = main([
                "region", fixture("ex1"), *(f"{flag}={value!r}" for flag, value in bounds.items()),
                "--grid", str(grid), "--svg", str(svg_path),
            ])
            assert code == EXIT_OK
            assert capsys.readouterr().out == "\n".join(csv) + "\n"
            lines = svg_path.read_text(encoding="utf-8").split("\n")
            # three lines of frame, then the member cells, then the markers
            assert lines[3:3 + len(rects)] == rects
            assert sum(line.endswith('fill="#7fbf7f"/>') for line in lines) == len(rects)
            assert lines[-2:] == ["</svg>", ""]
    assert kinds == {"inside", "outside", "mixed"}


def test_region_writes_any_raster_cell_by_cell(tmp_path, capsys, monkeypatch):
    # the writers render rows of any number of runs, so CSV, SVG and --json
    # show the same cells whatever the raster
    rng = np.random.default_rng(31)
    window = REGION_WINDOWS[0]
    bounds = [f"{flag}={value!r}" for flag, value in zip(("--xmin", "--xmax", "--ymin", "--ymax"),
                                                         window)]
    for grid in (2, 3, 9):
        raster = rng.random((grid, grid)) < 0.5
        raster[0] = False
        raster[-1] = True
        monkeypatch.setattr(gaincap.cli, "region_sample", lambda *args: raster)
        _, csv, rects = region_reference(window, grid, raster)
        svg_path = tmp_path / "region.svg"
        assert main(["region", fixture("ex1"), *bounds, "--grid", str(grid),
                     "--svg", str(svg_path)]) == EXIT_OK
        assert capsys.readouterr().out == "\n".join(csv) + "\n"
        lines = svg_path.read_text(encoding="utf-8").split("\n")
        assert lines[3:3 + len(rects)] == rects
        assert sum(line.endswith('fill="#7fbf7f"/>') for line in lines) == len(rects)
        assert main(["region", fixture("ex1"), *bounds, "--grid", str(grid), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["raster"] == raster.astype(int).tolist()


def test_region_grid_validation(capsys):
    code = main([
        "region", fixture("ex1"),
        "--xmin", "-2", "--xmax", "2", "--ymin", "-2", "--ymax", "2", "--grid", "1",
    ])
    assert code == EXIT_INPUT
    assert "--grid" in capsys.readouterr().err


def test_region_rejects_non_finite_bounds(capsys):
    for flag in ("--xmin", "--xmax", "--ymin", "--ymax"):
        for bad in ("inf", "-inf", "nan"):
            bounds = {"--xmin": "-2", "--xmax": "2", "--ymin": "-2", "--ymax": "2", flag: bad}
            args = [f"{name}={value}" for name, value in bounds.items()]
            code = main(["region", fixture("ex1"), *args, "--grid", "3"])
            assert code == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "gaincap: error: " in captured.err and "finite" in captured.err


def test_region_rejects_overflowing_widths(capsys):
    # finite bounds whose difference leaves the float range would sample
    # inf and NaN points
    for window in (["--xmin=-1e308", "--xmax=1e308", "--ymin=-1", "--ymax=1"],
                   ["--xmin=-1", "--xmax=1", "--ymin=-1.7e308", "--ymax=1e308"]):
        code = main(["region", fixture("ex1"), *window, "--grid", "3"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "floating-point range" in captured.err


def test_region_refuses_higher_dimensions(capsys):
    code = main([
        "region", fixture("ex5"),
        "--xmin", "-1", "--xmax", "1", "--ymin", "-1", "--ymax", "1", "--grid", "3",
    ])
    assert code == EXIT_INPUT
    assert "two-state" in capsys.readouterr().err


def test_region_json(capsys):
    code = main([
        "region", fixture("ex1"), "--json",
        "--xmin", "-2", "--xmax", "2", "--ymin", "-2", "--ymax", "2", "--grid", "3",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["raster"][1][1] == 1
    assert report["xs"] == [-2.0, 0.0, 2.0]


# ---------------------------------------------------------------- simulate


def test_simulate_csv(capsys):
    code = main(["simulate", fixture("ex1"), "--alpha", "1", "--beta", "0,0", "--steps", "1"])
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert code == EXIT_OK
    assert lines[0] == "step,x1,x2,u1,u2,y1"
    assert lines[1].startswith("0,0.29999999999999999,0.5,")
    cells = lines[2].split(",")
    assert float(cells[1]) == pytest.approx(0.27)
    assert float(cells[2]) == pytest.approx(0.11)
    assert float(cells[-1]) == pytest.approx(0.38)


def test_simulate_without_gain_omits_inputs(capsys):
    code = main(["simulate", fixture("ex6"), "--alpha", "1", "--beta", "0,0", "--steps", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.strip().split("\n")[0] == "step,x1,x2,y1"


@pytest.mark.parametrize("name, digest", [
    ("ex1", "d332b52aaa6a54753d91af3a523c3847b9d5718c90cf74dc4ca1d9dc2f4377c5"),
    ("ex6", "f92aafdcf5e551581e1f884d5f10b9e322ffef955c6fe24d3a5bc24c95c6e2e6"),
])
def test_simulate_exact_bytes(name, digest, capsys):
    # ex1 has a gain and so an input block; ex6 gives only A_tilde
    code = main([
        "simulate", fixture(name), "--alpha", "0.7", "--beta", "0.2,-0.3", "--steps", "50",
    ])
    assert code == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def simulate_reference(name, alpha, beta, steps):
    """The simulate CSV, every value of every row formatted on its own."""
    system, loop = library_problem(name)
    traj = simulate(system, **loop, alpha=alpha, beta=beta, steps=steps)
    header = ["step"] + [f"x{i + 1}" for i in range(traj.states.shape[1])]
    if traj.inputs is not None:
        header += [f"u{i + 1}" for i in range(traj.inputs.shape[1])]
    header += [f"y{i + 1}" for i in range(traj.outputs.shape[1])]
    lines = [",".join(header)]
    for i in range(steps + 1):
        values = list(traj.states[i])
        if traj.inputs is not None:
            values += list(traj.inputs[i])
        values += list(traj.outputs[i])
        lines.append(",".join([str(i)] + ["%.17g" % v for v in values]))
    return "\n".join(lines) + "\n"


def test_simulate_settled_run_matches_reference(capsys):
    # ex1's state turns subnormal at about step 6716 and sits at a rounding
    # fixed point from step 7042, so the last 959 rows repeat the row before
    code = main(["simulate", fixture("ex1"), "--alpha", "0.7", "--beta", "0.2,-0.3",
                 "--steps", "8000"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == simulate_reference(fixture("ex1"), 0.7, [0.2, -0.3], 8000)
    values = [line.partition(",")[2] for line in out.split("\n")[1:-1]]
    assert sum(a == b for a, b in zip(values, values[1:])) > 900


def test_simulate_keeps_signed_zeros(tmp_path, capsys):
    # row 0 is [-0, -0, 0] and row 1 is [0, 0, 0]: equal values, other bits
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "n": 2, "p": 1, "A": [[0.5, 0.0], [0.0, 0.5]], "C": [[1.0, 1.0]],
        "A_tilde": [[0.5, 0.0], [0.0, 0.5]], "tau0": [0.0, 0.0], "epsilon": 1.0,
    }), encoding="utf-8")
    code = main(["simulate", str(path), "--alpha=-1", "--beta=-0.0,-0.0", "--steps", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == "step,x1,x2,y1\n0,-0,-0,0\n1,0,0,0\n2,0,0,0\n"
    assert out == simulate_reference(str(path), -1.0, [-0.0, -0.0], 2)


def test_simulate_zero_run(capsys):
    code = main(["simulate", fixture("ex1"), "--alpha", "0", "--beta", "0,0", "--steps", "2"])
    out = capsys.readouterr().out
    for line in out.strip().split("\n")[1:]:
        assert all(float(v) == 0.0 for v in line.split(",")[1:])
    assert code == EXIT_OK


def test_simulate_superposition(capsys):
    def run(alpha, beta):
        code = main([
            "simulate", fixture("ex1"), "--json",
            "--alpha", str(alpha), "--beta", beta, "--steps", "6",
        ])
        assert code == EXIT_OK
        return np.array(json.loads(capsys.readouterr().out)["states"])

    first = run(0.7, "0.2,-0.3")
    second = run(-1.1, "0.05,0.4")
    combined = run(0.7 - 1.1, "0.25,0.1")
    assert np.allclose(first + second, combined, atol=1e-12)


def test_simulate_beta_validation(capsys):
    code = main(["simulate", fixture("ex1"), "--alpha", "1", "--beta", "0,0,0", "--steps", "1"])
    assert code == EXIT_INPUT
    assert "components" in capsys.readouterr().err
    code = main(["simulate", fixture("ex1"), "--alpha", "1", "--beta", "a,b", "--steps", "1"])
    assert code == EXIT_INPUT


def test_simulate_rejects_non_finite_numbers(capsys):
    for alpha, beta in (("1", "nan,0"), ("1", "0,inf"), ("nan", "0,0"), ("-inf", "0,0")):
        code = main(
            ["simulate", fixture("ex1"), f"--alpha={alpha}", f"--beta={beta}", "--steps", "2"]
        )
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gaincap: error: " in captured.err and "finite" in captured.err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["determine"])  # missing file argument
    assert exc.value.code == EXIT_INPUT
    capsys.readouterr()


def test_limits_only_on_commands_that_search(capsys):
    # analyze and simulate run no fixpoint search, so they take no search limits
    for argv in (
        ["analyze", fixture("ex1"), "--max-iter", "5"],
        ["simulate", fixture("ex1"), "--alpha", "1", "--beta", "0,0", "--steps", "1",
         "--stop-tol", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err


def test_main_calls_share_one_parser(monkeypatch, capsys):
    # main builds its parser once per process; a call, a failed one
    # included, must leave nothing behind that changes a later call, so each
    # call here prints what a fresh process running that command alone prints
    commands = [
        ["determine", fixture("ex1"), "--json"],
        ["determine", "--json"],  # usage error: no file
        ["check-gain", fixture("ex6")],
        ["analyze", fixture("ex5"), "--json"],
        ["region", fixture("ex1"), "--xmin=-2", "--xmax=2", "--ymin=-2", "--ymax=2",
         "--grid", "21"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    fresh = [
        subprocess.Popen([sys.executable, "-m", "gaincap.cli", *argv], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for argv in commands
    ]
    builds = []
    build = gaincap.cli.build_parser
    monkeypatch.setattr(gaincap.cli, "build_parser", lambda: builds.append(1) or build())
    gaincap.cli._parser.cache_clear()
    shared = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        shared.append((captured.out, captured.err, code))
    assert len(builds) == 1
    assert [code for _, _, code in shared] == [EXIT_OK, EXIT_INPUT, EXIT_INADMISSIBLE, EXIT_OK,
                                              EXIT_OK]
    for proc, got in zip(fresh, shared):
        out, err = proc.communicate(timeout=60)
        assert got == (out, err, proc.returncode)


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_INPUT
    capsys.readouterr()
