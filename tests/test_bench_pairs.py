"""The summary of scripts/bench_pairs.py on fabricated benchmark results."""

from __future__ import annotations

import importlib.util
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
