"""Alternating parent/change pairs of perfbench/run.py, written as BENCH_<tag>.json.

    python3 tools/bench_pairs.py --tag mine --parent HEAD~1 --change HEAD \\
        --group cli:1301-1310 --group ladder:1311-1320 --trace cli:201 \\
        --description "what the change is"

Each side runs from its own local ``git clone`` of this repository, checked
out at its commit in a temporary directory, so both sides run their committed
files only and nothing is fetched.  (A ``git worktree`` would do as well,
but its ``.git`` is a file, and run.py then records the commit as unknown.)

Per group ``WORKLOAD:FIRST-LAST`` one pair runs per seed, each side for
BENCHMARK.json's ``run_seconds`` with ``--trace 0``, and the side that runs
first alternates from pair to pair.  ``--trace WORKLOAD:SEED`` adds a group
``trace-WORKLOAD`` of one ``--trace 1 --seconds 2`` run per side.  The file is
rewritten after every run, so an interrupted script keeps the runs it finished.

The record keeps, per run, its group, workload, seed, side, commit, pair,
order (0 for the side that ran first), trace flag, exit code and run.py's
last two stdout lines verbatim.  Its summary gives, per group and per
end-to-end metric of BENCHMARK.json, each side's quartiles (numpy linear
percentiles), the median change in percent, the parent's IQR and the pairs
the change won (ties count for neither), plus each side's verdict counts,
each side's least-squares fit of peak_rss_mb against its verdict count (MB
intercept, KB per verdict), the failures summed per side, and the seeds.
The fit tells memory the benchmark keeps per verdict apart from gaincap's:
next to peak_rss_mb's median change, ``fit_predicted_change_pct`` is the
change the parent's fit predicts at the change side's median verdict count,
the part of the change that more verdicts alone would make.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SECONDS = 2


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(commit: str, into: Path) -> Path:
    """A local clone of this repository at ``commit``."""
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(into))
    git("checkout", "--quiet", "--detach", commit, cwd=into)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    return {"exit": proc.returncode, "stdout_last_two": proc.stdout.splitlines()[-2:]}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _lines(run: dict) -> tuple[dict, dict]:
    """run.py's run header and result, or empty dicts when it printed neither."""
    try:
        header, result = (json.loads(line) for line in run["stdout_last_two"])
    except ValueError:
        return {}, {}
    return header, result


def summarize_group(runs: list[dict], metrics: list[dict]) -> dict:
    """Quartiles, median change, parent IQR and pairs won per metric, plus
    verdicts, failures and seeds, for the runs of one group."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [by_pair[p] for p in sorted(by_pair) if len(by_pair[p]) == 2]
    verdicts = {side: [_lines(pair[side])[0].get("verdicts") for pair in pairs] for side in SIDES}
    fits = {side: rss_fit([pair[side] for pair in pairs]) for side in SIDES}
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [_lines(pair[side])[1].get("metrics", {}).get(name, {}).get("value")
                         for pair in pairs] for side in SIDES}
        complete = [(p, c) for p, c in zip(values["parent"], values["change"])
                    if p is not None and c is not None]
        if not complete:
            continue
        parent, change = (np.array(v, dtype=float) for v in zip(*complete))
        p_q = np.percentile(parent, [25, 50, 75])
        c_q = np.percentile(change, [25, 50, 75])
        won = change < parent if metric["better"] == "lower" else change > parent
        summary[name] = {
            "parent_q1_median_q3": p_q.tolist(),
            "change_q1_median_q3": c_q.tolist(),
            "median_change_pct": float((c_q[1] / p_q[1] - 1.0) * 100.0),
        }
        if name == "peak_rss_mb":
            summary[name]["fit_predicted_change_pct"] = predicted_rss_change(
                fits["parent"], verdicts["change"], p_q[1])
        summary[name].update({
            "parent_iqr": float(p_q[2] - p_q[0]),
            "change_better_pairs": f"{int(won.sum())}/{len(complete)}",
        })
    summary["verdicts"] = verdicts
    summary["rss_fit"] = fits
    summary["failed"] = {side: sum(_lines(pair[side])[1].get("failed", 0) for pair in pairs)
                         for side in SIDES}
    summary["seeds"] = [pair["parent"]["seed"] for pair in pairs]
    return summary


def predicted_rss_change(fit: dict | None, verdicts: list, parent_median: float) -> float | None:
    """The peak_rss_mb change in percent of ``parent_median`` that ``fit``
    predicts at the median of ``verdicts``, or None without a fit or a
    verdict count."""
    counts = [v for v in verdicts if v is not None]
    if fit is None or not counts:
        return None
    predicted = fit["mb_intercept"] + fit["kb_per_verdict"] / 1024.0 * float(np.median(counts))
    return float((predicted / parent_median - 1.0) * 100.0)


def rss_fit(runs: list[dict]) -> dict | None:
    """Least-squares line of ``peak_rss_mb`` against the verdict count over
    ``runs``: the intercept in MB and the slope in KB (1/1024 MB) per
    verdict, or None without two distinct verdict counts."""
    points = []
    for header, result in map(_lines, runs):
        verdicts = header.get("verdicts")
        rss = result.get("metrics", {}).get("peak_rss_mb", {}).get("value")
        if verdicts is not None and rss is not None:
            points.append((verdicts, rss))
    if len({verdicts for verdicts, _ in points}) < 2:
        return None
    slope, intercept = np.polyfit(*np.array(points, dtype=float).T, 1)
    return {"mb_intercept": float(intercept), "kb_per_verdict": float(slope * 1024.0),
            "runs": len(points)}


def summarize_trace(runs: list[dict]) -> dict:
    out = {}
    for run in runs:
        header, result = _lines(run)
        out[run["side"]] = {
            "exit": run["exit"],
            "absent_layers": header.get("absent_layers"),
            **{name: m["value"] for name, m in result.get("metrics", {}).items()},
        }
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json")
    parser.add_argument("--parent", default="HEAD~1", help="parent revision (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="change revision (default HEAD)")
    parser.add_argument("--group", action="append", default=[], metavar="WORKLOAD:FIRST-LAST",
                        help="one pair per seed; repeat for more groups")
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD:SEED",
                        help="one traced run per side")
    parser.add_argument("--description", default="")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out = ROOT / f"BENCH_{args.tag}.json"
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    plan = []
    for group in args.group:
        workload, seeds = group.split(":")
        for pair, seed in enumerate(seed_range(seeds)):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            plan += [(workload, workload, seed, side, pair, k, 0) for k, side in enumerate(order)]
    for spec in args.trace:
        workload, seed = spec.split(":")
        plan += [(f"trace-{workload}", workload, int(seed), side, 0, k, 1)
                 for k, side in enumerate(SIDES)]
    record = {"description": args.description, "parent": [commits["parent"]],
              "change": [commits["change"]], "summary": {}, "runs": []}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {side: checkout(commits[side], work / side) for side in SIDES}
        for group, workload, seed, side, pair, order, trace in plan:
            seconds = TRACE_SECONDS if trace else benchmark["run_seconds"]
            result = run_once(trees[side], workload, seed, seconds, trace)
            record["runs"].append({"group": group, "workload": workload, "seed": seed,
                                   "side": side, "commit": commits[side], "pair": pair,
                                   "order": order, "trace": trace, **result})
            print(f"{group} seed {seed} {side}: exit {result['exit']}", file=sys.stderr)
            groups = {}
            for run in record["runs"]:
                groups.setdefault(run["group"], []).append(run)
            record["summary"] = {
                name: summarize_trace(runs) if runs[0]["trace"] else summarize_group(runs, metrics)
                for name, runs in groups.items()
            }
            out.write_text(json.dumps(record) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(run["exit"] == 0 for run in record["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
