import importlib.util
import math
from pathlib import Path

import pytest

from gaincap.capacity import IterationRecord

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


def test_rows_settled_on_either_side_are_left_out_and_counted():
    # a settled row carries the bound of the step before, not an LP
    # maximum, so only the rows both sides solved are compared
    parent = [("history", (0.5, 0.5, 0.375, 0.375)), ("history", (2.0, 2.0))]
    change = [("history", (0.5 + 1e-13, 0.5 + 1e-13, None, None)), ("history", (None, None))]
    counts, largest = verdict_diff.compare(parent, change)
    assert not any(counts.values())
    assert largest["history"] == pytest.approx(2e-13, rel=1e-3)
    assert verdict_diff.settled_rows(parent, change) == 2
    assert verdict_diff.settled_rows(change, change) == 2
    assert verdict_diff.settled_rows(parent, parent) == 0


def test_solved_maxima_marks_the_settled_rows_of_a_record():
    record = IterationRecord(3, (1.0, 1.0, 0.25, 0.25, 0.5, 0.5), True,
                             (("vertex", 4), ("settled", 0), ("origin", 2)))
    assert verdict_diff.solved_maxima(record) == (1.0, 1.0, None, None, 0.5, 0.5)
