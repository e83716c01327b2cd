"""Spans around gaincap's public functions, recorded from outside the program.

Each traced function is replaced, in every gaincap module that binds it,
by a wrapper that appends a span (name, start, end, parent, info) to an
in-memory list.  Replacing the name where the caller looks it up (for
example ``gaincap.capacity.solve`` for the LPs of the fixpoint search, or
``gaincap.cli.check_gain`` for the CLI) is what makes nested calls
visible; nothing under ``src/`` is edited.  A traced name that no longer
exists is reported as absent instead of failing the run.

A span's self time is its duration minus the part of it covered by its
child spans.
"""

import functools
import importlib
import statistics
from time import perf_counter

MODULES = ("gaincap", "gaincap.capacity", "gaincap.cli", "gaincap.lp", "gaincap.linalg")


def _lp_info(args, kwargs, outcome):
    problem = args[0] if args else kwargs["problem"]
    rows, nvars = problem.g.shape
    artificials = int((problem.h < 0).sum())
    # tableau of lp.solve: split free variables, one slack per row, plus
    # one artificial per negative bound in phase 1
    return {
        "rows": rows,
        "cells": rows * (2 * nvars + rows + artificials),
        "unbounded": getattr(outcome, "status", None) == "unbounded",
    }


def _determine_info(args, kwargs, cap):
    history = getattr(cap, "history", ())
    steps = len(history)
    determined = getattr(cap, "status", None) == "determined"
    # an early-exit search needs one LP per step that continues and every
    # LP of the step that stops
    needed = (steps - 1) + len(history[-1].values) if determined and steps else steps
    return {"steps": steps, "needed": needed, "limit": not determined}


def _region_info(args, kwargs, raster):
    return {"points": int(getattr(raster, "size", 0))}


# span name -> (defining module, attribute, info extractor)
TRACED = {
    "lp.solve": ("gaincap.lp", "solve", _lp_info),
    "capacity.determine": ("gaincap.capacity", "determine", _determine_info),
    "capacity.stop_test": ("gaincap.capacity", "stop_test", None),
    "capacity.check_gain": ("gaincap.capacity", "check_gain", None),
    "capacity.membership": ("gaincap.capacity", "membership", None),
    "capacity.analyze": ("gaincap.capacity", "analyze", None),
    "capacity.closed_loop": ("gaincap.capacity", "closed_loop", None),
    "capacity.sensitivity_rows": ("gaincap.capacity", "sensitivity_rows", None),
    "capacity.simulate": ("gaincap.capacity", "simulate", None),
    "capacity.region_sample": ("gaincap.capacity", "region_sample", _region_info),
    "linalg.rank": ("gaincap.linalg", "rank", None),
    "linalg.spectral_radius": ("gaincap.linalg", "spectral_radius", None),
    "linalg.characteristic_coefficients": ("gaincap.linalg", "characteristic_coefficients", None),
    "linalg.induced_inf_norm": ("gaincap.linalg", "induced_inf_norm", None),
    "linalg.controllability_matrix": ("gaincap.linalg", "controllability_matrix", None),
    "linalg.observability_matrix": ("gaincap.linalg", "observability_matrix", None),
    "cli.main": ("gaincap.cli", "main", None),
    "cli.load_problem": ("gaincap.cli", "load_problem", None),
}


class Tracer:
    """Collects spans while installed; ``spans`` rows are
    [name, start, end, parent index or -1, info or None]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.absent = []

    def span(self, name, fn, *args, info=None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        if info is not None:
            record[4] = info(args, kwargs, result)
        return result

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, info=info, **kwargs)

        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (home, attr, info) in TRACED.items():
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, info)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans, lo=0, hi=None):
    """Self time of every span in ``spans[lo:hi]`` (a closed subtree range)."""
    hi = len(spans) if hi is None else hi
    covered = {}
    last_end = {}
    for i in range(lo, hi):
        _, start, end, parent, _ = spans[i]
        if parent >= lo:
            begin = max(start, last_end.get(parent, start))
            covered[parent] = covered.get(parent, 0.0) + max(0.0, end - begin)
            last_end[parent] = max(end, last_end.get(parent, end))
    return {i: spans[i][2] - spans[i][1] - covered.get(i, 0.0) for i in range(lo, hi)}


def layer_metrics(spans, lo, hi):
    """Per-layer figures of one batch, whose spans are ``spans[lo:hi]``."""
    own = self_times(spans, lo, hi)
    busy, self_s, calls = {}, {}, {}
    lp_rows, lp_times = [], []
    lp_cells = lp_unbounded = steps = needed = limits = points = 0
    for i in range(lo, hi):
        name, start, end, _, info = spans[i]
        busy[name] = busy.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "lp.solve":
            lp_times.append(end - start)
            if info is not None:
                lp_rows.append(info["rows"])
                lp_cells += info["cells"]
                lp_unbounded += info["unbounded"]
        elif name == "capacity.determine" and info is not None:
            steps += info["steps"]
            needed += info["needed"]
            limits += info["limit"]
        elif name == "capacity.region_sample" and info is not None:
            points += info["points"]
    lp_calls = calls.get("lp.solve", 0)
    determines = calls.get("capacity.determine", 0)
    metrics = {
        "lp.calls": (lp_calls, "count"),
        "lp.busy_s": (busy.get("lp.solve", 0.0), "s"),
        "lp.rows_max": (max(lp_rows, default=0), "rows"),
        "lp.rows_mean": (statistics.fmean(lp_rows) if lp_rows else 0.0, "rows"),
        "lp.cells": (lp_cells, "cells"),
        "lp.call_p50_us": (1e6 * statistics.median(lp_times) if lp_times else 0.0, "us"),
        "lp.unbounded": (lp_unbounded, "count"),
        "capacity.determine.busy_s": (busy.get("capacity.determine", 0.0), "s"),
        "capacity.determine.self_s": (self_s.get("capacity.determine", 0.0), "s"),
        "capacity.determine.steps": (steps, "count"),
        "capacity.determine.lp_needed_ratio": (needed / lp_calls if lp_calls else 0.0, "ratio"),
        "capacity.determine.limit_ratio": (limits / determines if determines else 0.0, "ratio"),
        "capacity.check_gain.self_s": (self_s.get("capacity.check_gain", 0.0), "s"),
        "capacity.membership.calls": (calls.get("capacity.membership", 0), "count"),
        "capacity.membership.busy_s": (busy.get("capacity.membership", 0.0), "s"),
        "capacity.analyze.self_s": (self_s.get("capacity.analyze", 0.0), "s"),
        "capacity.region_sample.busy_s": (busy.get("capacity.region_sample", 0.0), "s"),
        "capacity.region_sample.points": (points, "count"),
        "capacity.simulate.busy_s": (busy.get("capacity.simulate", 0.0), "s"),
        "linalg.spectral_radius.calls": (calls.get("linalg.spectral_radius", 0), "count"),
        "linalg.spectral_radius.busy_s": (busy.get("linalg.spectral_radius", 0.0), "s"),
        "linalg.rank.busy_s": (busy.get("linalg.rank", 0.0), "s"),
        "cli.load_problem.busy_s": (busy.get("cli.load_problem", 0.0), "s"),
        "cli.render_s": (self_s.get("cli.main", 0.0), "s"),
    }
    return metrics, self_s
