"""The summary of scripts/bench_pairs.py on fabricated benchmark results."""

from __future__ import annotations

import importlib.util
import json
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
