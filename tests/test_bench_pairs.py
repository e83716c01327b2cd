import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "rate", "better": "higher"}]


def run(side, pair, seed, wall, rate, verdicts=10, failed=0, rss=None):
    header = {"workload": "cli", "verdicts": verdicts}
    result = {"failed": failed, "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                            "rate": {"value": rate, "unit": "1/s"}}}
    if rss is not None:
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return {"group": "cli", "side": side, "pair": pair, "seed": seed, "trace": 0,
            "stdout_last_two": [json.dumps(header), json.dumps(result)]}


def test_summary_counts_pairs_won_and_parent_spread():
    runs = []
    for pair, (parent, change) in enumerate([(1.0, 0.5), (2.0, 2.0), (3.0, 3.5), (4.0, 1.0)]):
        runs += [run("parent", pair, 100 + pair, parent, parent, failed=pair),
                 run("change", pair, 100 + pair, change, change, verdicts=20)]
    # a pair cut short after one side does not count
    runs.append(run("parent", 4, 104, 9.0, 9.0))
    summary = bench_pairs.summarize_group(runs, METRICS)
    wall = summary["wall_s"]
    assert wall["parent_q1_median_q3"] == [1.75, 2.5, 3.25]
    assert wall["parent_iqr"] == 1.5
    assert wall["change_q1_median_q3"] == [0.875, 1.5, 2.375]
    assert wall["median_change_pct"] == pytest.approx(-40.0)
    # ties count for neither side; "higher" metrics are won the other way
    assert wall["change_better_pairs"] == "2/4"
    assert summary["rate"]["change_better_pairs"] == "1/4"
    assert summary["verdicts"] == {"parent": [10] * 4, "change": [20] * 4}
    # no peak_rss_mb, and one verdict count per side: no line to fit
    assert summary["rss_fit"] == {"parent": None, "change": None}
    assert summary["failed"] == {"parent": 6, "change": 0}
    assert summary["seeds"] == [100, 101, 102, 103]


def test_summary_skips_a_run_without_its_result_lines():
    runs = [run("parent", 0, 1, 1.0, 1.0), run("change", 0, 1, 0.5, 0.5)]
    runs[1]["stdout_last_two"] = ["Traceback (most recent call last):"]
    summary = bench_pairs.summarize_group(runs, METRICS)
    assert "wall_s" not in summary
    assert summary["verdicts"] == {"parent": [10], "change": [None]}


def test_summary_fits_peak_rss_against_verdicts():
    # parent: 40 MB + 2 KB per verdict exactly; change: one run lacks its
    # result lines and the fit uses the other three
    runs = []
    for pair, verdicts in enumerate([512, 1024, 2048, 1536]):
        runs += [run("parent", pair, pair, 1.0, 1.0, verdicts, rss=40.0 + verdicts * 2 / 1024),
                 run("change", pair, pair, 1.0, 1.0, verdicts, rss=30.0 + verdicts / 1024)]
    runs[-1]["stdout_last_two"] = []
    fit = bench_pairs.summarize_group(runs, METRICS)["rss_fit"]
    assert fit["parent"]["mb_intercept"] == pytest.approx(40.0)
    assert fit["parent"]["kb_per_verdict"] == pytest.approx(2.0)
    assert fit["parent"]["runs"] == 4
    assert fit["change"]["mb_intercept"] == pytest.approx(30.0)
    assert fit["change"]["kb_per_verdict"] == pytest.approx(1.0)
    assert fit["change"]["runs"] == 3


def test_summary_predicts_the_rss_change_more_verdicts_make():
    # the parent holds 40 MB + 2 KB per verdict; the change makes 512 more
    # verdicts per run at the same peak, so the parent's fit predicts a rise
    # of 1 MB on the parent's median of 42.25 MB that was not measured
    runs = []
    for pair, verdicts in enumerate([1000, 1100, 1200, 1300]):
        rss = 40.0 + verdicts * 2 / 1024
        runs += [run("parent", pair, pair, 1.0, 1.0, verdicts, rss=rss),
                 run("change", pair, pair, 1.0, 1.0, verdicts + 512, rss=rss)]
    metrics = METRICS + [{"name": "peak_rss_mb", "better": "lower"}]
    rss = bench_pairs.summarize_group(runs, metrics)["peak_rss_mb"]
    assert rss["median_change_pct"] == 0.0
    parent_median = 40.0 + 1150 * 2 / 1024
    assert rss["fit_predicted_change_pct"] == pytest.approx(100.0 / parent_median)
    assert list(rss)[2:4] == ["median_change_pct", "fit_predicted_change_pct"]
    # one verdict count on the parent side: no fit, so no prediction
    for r in runs:
        if r["side"] == "parent":
            r["stdout_last_two"][0] = json.dumps({"workload": "cli", "verdicts": 1000})
    rss = bench_pairs.summarize_group(runs, metrics)["peak_rss_mb"]
    assert rss["fit_predicted_change_pct"] is None


def test_summary_gives_the_speed_up_the_rss_bound_leaves_room_for():
    # the parent holds 40 MB + 2 KB per verdict, with a median of 1150
    # verdicts and 42.25 MB; 10% above that median is reached at 3,313
    # verdicts, 2.88 times the parent's median count
    runs = []
    for pair, verdicts in enumerate([1000, 1100, 1200, 1300]):
        rss = 40.0 + verdicts * 2 / 1024
        runs += [run("parent", pair, pair, 1.0, 1.0, verdicts, rss=rss),
                 run("change", pair, pair, 1.0, 1.0, 2 * verdicts, rss=rss)]
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    rss = bench_pairs.summarize_group(runs, metrics)["peak_rss_mb"]
    parent_median = 40.0 + 1150 * 2 / 1024
    assert rss["rss_ceiling"] == pytest.approx((parent_median * 1.1 - 40.0) * 512 / 1150)
    assert rss["rss_ceiling"] == pytest.approx(2.881, abs=1e-3)
    assert list(rss)[3:5] == ["fit_predicted_change_pct", "rss_ceiling"]
    # no bound, or memory that shrinks as the verdicts grow: no ceiling
    assert bench_pairs.summarize_group(runs, [{"name": "peak_rss_mb", "better": "lower"}])[
        "peak_rss_mb"]["rss_ceiling"] is None
    shrinking = [run(r["side"], r["pair"], r["seed"], 1.0, 1.0, 1000 + 100 * r["pair"],
                     rss=42.0 - r["pair"]) for r in runs]
    assert bench_pairs.summarize_group(shrinking, metrics)["peak_rss_mb"]["rss_ceiling"] is None


def test_seed_range():
    assert bench_pairs.seed_range("1301-1303") == [1301, 1302, 1303]
    assert bench_pairs.seed_range("7") == [7]
