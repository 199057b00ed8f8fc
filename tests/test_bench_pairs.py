"""The summary of scripts/bench_pairs.py on fabricated benchmark results."""

from __future__ import annotations

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result(wall, setup=0.3, rss=50.0, correct=True, failed=0):
    values = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()},
    }


def runs_of(parent_walls, change_walls, digests=("abc", "abc"), **change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent_walls, change_walls), start=1):
        runs.append({"pair": pair, "side": "parent", "result": result(p), "report_digest": digests[0]})
        runs.append({"pair": pair, "side": "change", "result": result(c, **change),
                     "report_digest": digests[1]})
    return runs


def test_medians_quartiles_and_wins():
    summary = bench_pairs.summarize(runs_of([3.0, 2.0, 4.0, 5.0, 1.0], [2.0, 2.0, 3.0, 6.0, 0.5]))
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"]["median"] == 3.0
    assert wall["parent"]["quartiles"] == pytest.approx([2.0, 4.0])
    assert wall["change"]["median"] == 2.0
    assert wall["change"]["quartiles"] == pytest.approx([2.0, 3.0])
    assert wall["wins"] == {"change": 3, "parent": 1, "ties": 1}
    assert summary["metrics"]["setup_s"]["wins"] == {"change": 0, "parent": 0, "ties": 5}
    assert summary["pairs"] == 5
    assert summary["report_digests"] == {"parent": ["abc"], "change": ["abc"]}
    assert summary["ok"]


def test_differing_digests_fail():
    summary = bench_pairs.summarize(runs_of([3.0, 2.0], [2.0, 1.0], digests=("abc", "abd")))
    assert summary["all_correct"] and not summary["same_digest"] and not summary["ok"]


@pytest.mark.parametrize("bad", [dict(correct=False), dict(failed=1)])
def test_incorrect_run_fails(bad):
    summary = bench_pairs.summarize(runs_of([3.0, 2.0], [2.0, 1.0], **bad))
    assert not summary["all_correct"] and not summary["ok"]


def test_unparsed_run_is_incorrect_and_left_out():
    runs = runs_of([3.0, 2.0], [2.0, 1.0])
    runs[1] = {"pair": 1, "side": "change", "result": {"correct": False}, "report_digest": None}
    summary = bench_pairs.summarize(runs)
    assert summary["metrics"]["wall_s"]["change"]["values"] == [1.0]
    assert summary["metrics"]["wall_s"]["wins"] == {"change": 1, "parent": 0, "ties": 0}
    assert not summary["ok"]


def test_checkouts_at_paths_of_unequal_length_are_refused(tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    parent, change = tmp_path / "parent", tmp_path / "change2"
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload",
                          "verify", "--seed", "1", "--pairs", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(parent) in err and str(change) in err and "unequal length" in err
    assert not out.exists()


def test_verdict_claims_a_gain_at_nine_wins_of_ten_beyond_the_parent_iqr():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]
    change = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 3.0]
    wall = bench_pairs.summarize(runs_of(parent, change))["metrics"]["wall_s"]
    assert wall["wins"] == {"change": 9, "parent": 1, "ties": 0}
    v = wall["verdict"]
    assert v["wins_needed"] == 9
    assert v["median_gap"] == pytest.approx(2.45 - 1.45)
    assert v["parent_iqr"] == pytest.approx(2.675 - 2.225)
    assert v["gain"] is True


def test_verdict_refuses_eight_wins_of_ten():
    parent = [2.0 + 0.1 * i for i in range(10)]
    change = [p - 1.0 for p in parent[:8]] + [9.0, 9.0]
    v = bench_pairs.summarize(runs_of(parent, change))["metrics"]["wall_s"]["verdict"]
    assert v["wins_needed"] == 9 and v["gain"] is False


def test_verdict_counts_ties_for_neither_side():
    # The parent wins no pair, but two of the ten are ties: eight wins.
    parent = [2.0 + 0.1 * i for i in range(10)]
    change = [p - 1.0 for p in parent[:8]] + parent[8:]
    wall = bench_pairs.summarize(runs_of(parent, change))["metrics"]["wall_s"]
    assert wall["wins"] == {"change": 8, "parent": 0, "ties": 2}
    assert wall["verdict"]["gain"] is False


def test_verdict_refuses_a_gap_inside_the_parent_iqr():
    # The change wins every pair, by less than the spread of the parent's runs.
    parent = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
    change = [p - 0.1 for p in parent]
    v = bench_pairs.summarize(runs_of(parent, change))["metrics"]["wall_s"]["verdict"]
    assert v["median_gap"] == pytest.approx(0.1) and v["parent_iqr"] == pytest.approx(2.0)
    assert v["gain"] is False


def test_verdict_without_values_claims_nothing():
    runs = runs_of([3.0], [2.0])
    runs[1]["result"] = {"correct": False}
    v = bench_pairs.summarize(runs)["metrics"]["wall_s"]["verdict"]
    assert v == {"wins_needed": 1, "median_gap": None, "parent_iqr": None, "gain": False}


def test_parse_run_keeps_result_detail_and_exit_code():
    stdout = 'progress\n{"detail": {"report_digest": "abc"}}\n{"correct": true, "failed": 0}\n'
    result, detail, kept = bench_pairs.parse_run(0, stdout)
    assert result == {"correct": True, "failed": 0}
    assert detail == {"report_digest": "abc"}
    assert kept == {"exit_code": 0}


@pytest.mark.parametrize(
    "stdout, last",
    [
        ("", ""),
        ('{"detail": {}}\nTraceback (most recent call last):\n', "Traceback (most recent call last):"),
        ('{"detail": {}}\n[1, 2]\n', "[1, 2]"),
        ('{"detail": {}}\n{"metrics": {}}\n', '{"metrics": {}}'),
        ('not json\n{"correct": true}\n', '{"correct": true}'),
        ('{"detail": {}}\n' + "x" * 500 + "\n", "x" * 200),
    ],
)
def test_parse_run_keeps_a_malformed_last_line_and_the_exit_code(stdout, last):
    result, detail, kept = bench_pairs.parse_run(0, stdout)
    assert result == {"correct": False} and detail == {}
    assert kept == {"exit_code": 0, "last_stdout_line": last}


def test_a_malformed_run_is_kept_in_its_run_entry(tmp_path, monkeypatch, capsys):
    good = 'x\n{"detail": {"report_digest": "abc"}}\n' + json.dumps(result(1.0)) + "\n"

    def fake_run(argv, cwd=None, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 128, "", "not a repository")
        bad = Path(cwd).name == "change"
        stdout = good + "oops: not a result\n" if bad else good
        return subprocess.CompletedProcess(argv, 0, stdout, "boom on stderr\n" if bad else "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "verify", "--seed", "1",
                             "--pairs", "1", "--out", str(out)])
    assert code == 1
    runs = json.loads(out.read_text())["entries"]["verify/seed-1"]["runs"]
    by_side = {run["side"]: run for run in runs}
    assert by_side["change"]["exit_code"] == 0
    assert by_side["change"]["last_stdout_line"] == "oops: not a result"
    assert by_side["change"]["result"] == {"correct": False}
    assert by_side["parent"]["exit_code"] == 0 and "last_stdout_line" not in by_side["parent"]
    assert "boom on stderr" in capsys.readouterr().err


def metric_runs(name, parent, change):
    """Pairs whose ``name`` metric takes the given values; the other metrics tie."""
    runs = runs_of([1.0] * len(parent), [1.0] * len(change))
    for run, value in zip(runs, [v for pair in zip(parent, change) for v in pair]):
        run["result"]["metrics"][name]["value"] = value
    return runs


def test_bounds_come_from_the_benchmark_file(tmp_path):
    assert bench_pairs.load_bounds() == {"wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.05}
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [{"name": "wall_s", "bound": 0.1}]}))
    assert bench_pairs.load_bounds(path) == {"wall_s": 0.1}


def test_regression_worse_like_a_setup_time_past_its_bound():
    # verify setup_s from 0.251 to 0.328 s: +31% against a bound of 25%.
    parent = [0.247, 0.249, 0.251, 0.252, 0.256]
    change = [0.321, 0.326, 0.328, 0.331, 0.335]
    setup = bench_pairs.summarize(metric_runs("setup_s", parent, change))["metrics"]["setup_s"]
    r = setup["regression"]
    assert r["bound"] == 0.25 and r["limit"] == pytest.approx(0.251 * 1.25)
    assert r["verdict"] == "worse"
    assert setup["verdict"]["gain"] is False


def test_regression_ok_inside_the_bound():
    parent = [2.0, 2.05, 2.1, 2.15, 2.2]
    change = [p + 0.3 for p in parent]
    wall = bench_pairs.summarize(runs_of(parent, change))["metrics"]["wall_s"]
    assert wall["wins"]["parent"] == 5
    assert wall["regression"]["verdict"] == "ok"


def test_regression_uses_each_metrics_own_bound():
    # +4% of peak RSS is inside its 5% bound, +6% is past it.
    parent = [49.3] * 5
    for factor, expected in ((1.04, "ok"), (1.06, "worse")):
        runs = metric_runs("peak_rss_mb", parent, [49.3 * factor] * 5)
        rss = bench_pairs.summarize(runs)["metrics"]["peak_rss_mb"]
        assert rss["regression"]["verdict"] == expected


def test_regression_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # The parent's IQR (2.0) is wider than 25% of its median (0.5).
    parent = [1.0, 3.0, 1.0, 3.0, 2.0]
    change = [1.5, 2.5, 1.5, 2.5, 2.0]
    r = bench_pairs.summarize(runs_of(parent, change))["metrics"]["wall_s"]["regression"]
    assert r["parent_iqr"] == pytest.approx(2.0) and r["verdict"] == "unresolved"


def test_regression_ok_when_every_change_run_beats_every_parent_run():
    parent = [2.0, 4.0, 2.0, 4.0, 3.0]
    change = [1.0, 1.5, 1.2, 1.9, 1.1]
    r = bench_pairs.summarize(runs_of(parent, change))["metrics"]["wall_s"]["regression"]
    assert r["parent_iqr"] > 0.25 * 3.0 and r["verdict"] == "ok"


def test_regression_of_a_short_batch_needs_every_change_run_past_the_limit():
    # sweep-samplesize wall_s of one unchanged commit pair: the median moved
    # from 0.730 to 0.925 s, past the 25% limit, but one change run is inside it.
    parent, change = [0.720, 0.825, 0.730], [0.925, 0.836, 1.105]
    r = bench_pairs.summarize(runs_of(parent, change))["metrics"]["wall_s"]["regression"]
    assert r["limit"] == pytest.approx(0.9125) and r["verdict"] == "unresolved"
    # With every change run past the limit the short batch reads worse.
    r = bench_pairs.summarize(runs_of(parent, [0.925, 0.95, 1.105]))["metrics"]["wall_s"]
    assert r["regression"]["verdict"] == "worse"


def test_regression_of_ten_pairs_goes_by_the_median():
    parent = [0.720, 0.825, 0.730] + [0.73] * 7
    change = [0.925, 0.836, 1.105] + [0.95] * 7
    r = bench_pairs.summarize(runs_of(parent, change))["metrics"]["wall_s"]["regression"]
    assert min(change) < r["limit"] < statistics.median(change)
    assert r["verdict"] == "worse"


def test_regression_without_values_is_unresolved():
    runs = runs_of([3.0], [2.0])
    runs[1]["result"] = {"correct": False}
    r = bench_pairs.summarize(runs)["metrics"]["wall_s"]["regression"]
    assert r["verdict"] == "unresolved" and r["limit"] is None
