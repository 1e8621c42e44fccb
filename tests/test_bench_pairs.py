"""Summary of paired benchmark runs (tools/bench_pairs.py) on synthetic
run.py results, and its argument checks."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"wall_s": "s", "peak_rss_mb": "MB"}


def _run(wall, rss=90.0, failed=0, attempted=100, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_counts_pairs_and_quartiles():
    parent = [_run(w) for w in (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7,
                                1.8, 1.9)]
    # lower in eight pairs, one tie, one higher
    change = [_run(w) for w in (0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5,
                                1.8, 2.0)]
    change[0]["failed"] = 2
    change[3]["correct"] = False
    s = bench_pairs.summarize(parent, change, METRICS)
    wall = s["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"] == {"median": 1.45, "q1": 1.225, "q3": 1.675}
    assert wall["change"]["median"] == pytest.approx(1.25)
    assert wall["change_lower_in_pairs"] == "8/10"
    assert wall["relative_change_of_median"] == round(1.25 / 1.45 - 1, 3)
    assert wall["parent_runs"][0] == 1.0 and wall["change_runs"][-1] == 2.0
    assert s["peak_rss_mb"]["change_lower_in_pairs"] == "0/10"  # all ties
    assert s["failed"] == {"parent": "0/1000", "change": "2/1000"}
    assert s["correct_every_run"] == {"parent": True, "change": False}


def test_claim_needs_nine_pairs_and_a_gap_beyond_the_parent_spread():
    parent = [_run(1.0 + 0.01 * i) for i in range(10)]
    wins = bench_pairs.summarize(parent, [_run(0.8 + 0.01 * i)
                                          for i in range(10)], METRICS)
    assert bench_pairs.claim_verdict(wins, "wall_s")["result"].endswith(
        ": met")
    # lower in every pair, but by less than the parent's quartile spread
    close = bench_pairs.summarize(parent, [_run(0.999 + 0.01 * i)
                                           for i in range(10)], METRICS)
    assert close["wall_s"]["change_lower_in_pairs"] == "10/10"
    assert bench_pairs.claim_verdict(close, "wall_s")["result"].endswith(
        "not met")
    # a large gap, but lower in only eight pairs
    mixed = [_run(0.8 + 0.01 * i) for i in range(8)] + [_run(2.0)] * 2
    few = bench_pairs.summarize(parent, mixed, METRICS)
    assert bench_pairs.claim_verdict(few, "wall_s")["result"].endswith(
        "not met")


def test_layer_summary_keeps_small_values_and_skips_idle_layers():
    """Traced runs go through the same summary: per-layer values of some
    microseconds keep six significant digits, and a layer that does not
    run on the workload (0 on both sides) has no relative change."""
    def traced(classify_ms, calls):
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "budget.classify_ms_per_cell": {"value": classify_ms,
                                            "unit": "ms"},
            "contact.calls": {"value": calls, "unit": "count"}}}
    layers = {"budget.classify_ms_per_cell": "ms", "contact.calls": "count"}
    s = bench_pairs.summarize([traced(1.234567e-4, 0)] * 3,
                              [traced(6.5e-5, 0)] * 3, layers)
    cell = s["budget.classify_ms_per_cell"]
    assert cell["parent"]["median"] == 1.23457e-4
    assert cell["change_runs"] == [6.5e-5] * 3
    assert cell["relative_change_of_median"] == round(6.5 / 12.3457 - 1, 3)
    assert cell["change_lower_in_pairs"] == "3/3"
    assert s["contact.calls"]["relative_change_of_median"] is None


def test_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([_run(1.0)], [], METRICS)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("21-30") == list(range(21, 31))
    assert bench_pairs.parse_seeds("31") == [31]


def test_cold_start_summary_takes_raw_medians_per_command():
    parent = {"import": [0.70, 0.66, 0.68, 0.71, 0.65, 0.69, 0.67],
              "traj": [0.90, 0.92, 0.88, 0.91, 0.89, 0.93, 0.87]}
    change = {"import": [0.17, 0.16, 0.18, 0.15, 0.19, 0.14, 0.16],
              "traj": [0.91, 0.90, 0.89, 0.92, 0.88, 0.94, 0.87]}
    s = bench_pairs.cold_start_summary(parent, change)
    assert list(s) == ["import", "traj"]
    imp = s["import"]
    assert (imp["unit"], imp["parent"], imp["change"]) == ("s", 0.68, 0.16)
    assert imp["relative_change_of_median"] == round(0.16 / 0.68 - 1, 3)
    assert imp["change_lower_in_pairs"] == "7/7"
    assert imp["parent_runs"] == parent["import"]
    assert imp["change_runs"] == change["import"]
    # lower in the second and fifth pairs, tied in the last
    assert s["traj"]["change_lower_in_pairs"] == "2/7"
    assert s["traj"]["parent"] == s["traj"]["change"] == 0.9


def test_cold_start_summary_rejects_unpaired_times():
    with pytest.raises(ValueError):
        bench_pairs.cold_start_summary({"import": [0.7, 0.6]},
                                       {"import": [0.2]})


def test_cold_start_commands_cover_import_and_the_readme_examples():
    assert bench_pairs.COLD_STARTS >= 7
    assert list(bench_pairs.COLD_COMMANDS) == [
        "import", "trap", "budget", "phase-diagram", "contact", "traj"]
    named = {arg for args in bench_pairs.COLD_COMMANDS.values()
             for arg in args if arg.endswith(".json")}
    assert named == set(bench_pairs.README_CONFIGS)


def test_parse_claim():
    workloads = ["traj_overlap", "cli_study"]
    assert bench_pairs.parse_claim("cli_study:wall_s", workloads,
                                   METRICS) == ("cli_study", "wall_s")
    for bad in ("cli_study", "dsmc_thermalize:wall_s", "cli_study:cpu_s"):
        with pytest.raises(ValueError, match="--claim"):
            bench_pairs.parse_claim(bad, workloads, METRICS)


@pytest.mark.parametrize("claim", ["traj_overlap", "cli_study:wall_s",
                                   "traj_overlap:dsmc.run_s"])
def test_bad_claim_stops_before_any_run(monkeypatch, capsys, claim):
    """A claim without a colon, on a workload not run or on a metric that
    is not end-to-end ends the script at argument parsing."""
    def no_export(*args):
        raise AssertionError("the runs started")
    monkeypatch.setattr(bench_pairs, "export", no_export)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--out", "unused.json", "--change", "x",
        "--workload", "traj_overlap", "--claim", claim])
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main()
    assert stop.value.code == 2
    assert "--claim" in capsys.readouterr().err


BOUNDS = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
          "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower",
                          "bound": 0.1}}


def test_bound_check_in_the_better_direction():
    lower = {"better": "lower", "bound": 0.1}
    higher = {"better": "higher", "bound": 0.1}
    assert bench_pairs.bound_check(100.0, 109.9, lower)["verdict"] == "within"
    assert bench_pairs.bound_check(100.0, 50.0, lower)["verdict"] == "within"
    assert bench_pairs.bound_check(100.0, 110.1, lower) == {
        "better": "lower", "bound": 0.1, "verdict": "exceeded"}
    assert bench_pairs.bound_check(100.0, 90.1, higher)["verdict"] == "within"
    assert bench_pairs.bound_check(100.0, 200.0,
                                   higher)["verdict"] == "within"
    assert bench_pairs.bound_check(100.0, 89.9,
                                   higher)["verdict"] == "exceeded"
    # a metric at 0 on the parent side exceeds any bound once it rises
    assert bench_pairs.bound_check(0.0, 1e-9, lower)["verdict"] == "exceeded"


def test_summary_checks_each_bound_and_the_claim_lists_the_exceeded():
    """A peak RSS 15.7% above the parent's (bound 10%) is "exceeded" in
    the summary and listed by the claim verdict, however well the claimed
    metric does; per-layer summaries carry no bound."""
    parent = [_run(1.3 + 0.01 * i, rss=100.0) for i in range(10)]
    change = [_run(1.1 + 0.01 * i, rss=115.7) for i in range(10)]
    s = bench_pairs.summarize(parent, change, METRICS, BOUNDS)
    assert s["wall_s"]["bound"] == {"better": "lower", "bound": 0.25,
                                    "verdict": "within"}
    assert s["peak_rss_mb"]["bound"]["verdict"] == "exceeded"
    calm = bench_pairs.summarize(parent, parent, METRICS, BOUNDS)
    workloads = {"traj_overlap": s, "cli_study": calm}
    assert bench_pairs.exceeded_bounds(workloads) == [
        "traj_overlap peak_rss_mb"]
    verdict = bench_pairs.claim_verdict(
        s, "wall_s", bench_pairs.exceeded_bounds(workloads))
    assert verdict["result"].endswith(": met")
    assert verdict["bounds_exceeded"] == ["traj_overlap peak_rss_mb"]
    assert bench_pairs.claim_verdict(calm, "wall_s")["bounds_exceeded"] == []
    assert "bound" not in bench_pairs.summarize(parent, change,
                                                METRICS)["wall_s"]
