import importlib.util
import math
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "verdict_diff", Path(__file__).resolve().parent.parent / "tools" / "verdict_diff.py"
)
verdict_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(verdict_diff)


def test_compare_counts_mismatches_by_kind_and_the_largest_move_of_maxima():
    parent = [("k0", 3), ("rows", b"ab"), ("history", (1.0, math.inf, 0.0)), ("exit", 0),
              ("stop_test", (2.0,))]
    change = [("k0", 4), ("rows", b"ab"), ("history", (1.0 + 1e-12, math.inf, 0.0)), ("exit", 1),
              ("stop_test", (2.0,))]
    counts, largest = verdict_diff.compare(parent, change)
    assert counts == {"k0": 1, "status": 0, "rows": 0, "verdict": 0, "exit": 1, "other": 0}
    assert largest == {"history": pytest.approx(1e-12, rel=1e-3), "stop_test": 0.0}
    # unbounded on one side only is an infinite move; maxima or results
    # that do not line up are mismatches
    _, largest = verdict_diff.compare([("history", (1.0, math.inf))], [("history", (1.0, 5.0))])
    assert largest["history"] == math.inf
    counts, _ = verdict_diff.compare([("history", (1.0,))], [("history", (1.0, 2.0))])
    assert counts["other"] == 1
    counts, _ = verdict_diff.compare([("k0", 1), ("exit", 0)], [("k0", 1)])
    assert counts["other"] == 1
