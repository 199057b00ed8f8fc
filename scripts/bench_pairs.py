"""Alternating benchmark pairs of two checkouts, written to a JSON file.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload forest-estimate --seed 1 --pairs 10 --out BENCH_10.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds 28 --trace 0`` once in each checkout, the parent first on odd
pairs and the change first on even ones.  Every run's result object
(its last stdout line) and report digest (from the detail line before
it) are kept.  The output file holds one entry per (workload, seed);
an existing file is read and the entry for this workload and seed is
replaced, so one file collects every workload a change was measured on.

Each entry gives both sides' median and quartiles of every end-to-end
metric, the pairs the change won on each, and a verdict by the claim
rule: the change may claim a gain on a metric only when it wins at
least nine tenths of the pairs run (ties count for neither side) and
its median is better than the parent's by more than the parent's
interquartile range.  Each metric also gets a no-regression verdict
against its bound in the repository's ``BENCHMARK.json``
(``end_to_end[].bound``, a fraction of the parent's median): ``worse``
when the change's median exceeds the parent's by more than the bound
(in a batch of fewer than 10 pairs, only when every change run does,
and ``unresolved`` otherwise), ``unresolved`` when the parent's
interquartile range is wider than the bound and not every change run
beats every parent run, and ``ok`` otherwise.  Every run keeps its
exit code; a run whose last stdout line is not a result object also
keeps that line's first 200 characters.  The script exits 1 if any
run is not ``"correct": true`` or the two sides' report digests differ.
It exits 2, before any run, if the two checkouts resolve to paths of
unequal length: ``verify``'s peak RSS moves with the length of the
checkout path, so only checkouts at paths of equal length compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 28
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
LAST_LINE_CHARS = 200


def commit_of(checkout: Path) -> dict:
    """The checkout's HEAD commit and whether its tree differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(git("status", "--porcelain").stdout.strip())}


def parse_run(exit_code: int, stdout: str) -> tuple:
    """A run's result object, its detail object and what its run entry keeps.

    The last stdout line must be a result object (a JSON object with a
    ``correct`` key) and the line before it the detail line.  When they
    are not, the result reads incorrect and the entry keeps the last
    line, cut to LAST_LINE_CHARS.
    """
    lines = stdout.strip().splitlines()
    try:
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        if isinstance(result, dict) and "correct" in result:
            return result, detail, {"exit_code": exit_code}
    except (IndexError, KeyError, TypeError, ValueError):
        pass
    last = lines[-1][:LAST_LINE_CHARS] if lines else ""
    return {"correct": False}, {}, {"exit_code": exit_code, "last_stdout_line": last}


def run_once(checkout: Path, workload: str, seed: int) -> tuple:
    """One benchmark run in ``checkout``: see ``parse_run``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    result, detail, kept = parse_run(proc.returncode, proc.stdout)
    if "last_stdout_line" in kept:
        sys.stderr.write(proc.stderr)
    return result, detail, kept


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]] if values else [None, None]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def verdict(metric: dict, pairs: int) -> dict:
    """Whether ``metric`` (lower is better) shows a gain by the claim rule.

    The change must win at least nine tenths of the ``pairs`` run,
    and the parent's median minus the change's must exceed the distance
    between the parent's quartiles.
    """
    wins_needed = -(-9 * pairs // 10)
    parent, change = metric["parent"], metric["change"]
    if parent["median"] is None or change["median"] is None:
        return {"wins_needed": wins_needed, "median_gap": None, "parent_iqr": None, "gain": False}
    gap = parent["median"] - change["median"]
    iqr = parent["quartiles"][1] - parent["quartiles"][0]
    return {
        "wins_needed": wins_needed,
        "median_gap": gap,
        "parent_iqr": iqr,
        "gain": metric["wins"]["change"] >= wins_needed and gap > iqr,
    }


def load_bounds(path: Path = BENCHMARK) -> dict:
    """Each end-to-end metric's regression bound, a fraction of the parent's median."""
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


# Batches of fewer pairs read ``worse`` only when every change run is past the limit.
FULL_PAIRS = 10


def regression(metric: dict, bound: float, pairs: int) -> dict:
    """Whether ``metric`` (lower is better) got worse than the parent by more than ``bound``.

    ``worse``: the change's median exceeds the parent's by more than
    ``bound`` times the parent's median.  Under FULL_PAIRS ``pairs``
    every change run must exceed it so, as the median of a few runs
    moves that far on noise alone; if not, ``unresolved``.
    ``unresolved`` also when the parent's interquartile range is wider
    than that margin, so a median inside it shows nothing, unless every
    change run beats every parent run; and when either side has no
    values.  ``ok`` otherwise.
    """
    parent, change = metric["parent"], metric["change"]
    if parent["median"] is None or change["median"] is None:
        return {"bound": bound, "limit": None, "parent_iqr": None, "verdict": "unresolved"}
    margin = bound * parent["median"]
    iqr = parent["quartiles"][1] - parent["quartiles"][0]
    if change["median"] - parent["median"] > margin:
        few = pairs < FULL_PAIRS and min(change["values"]) - parent["median"] <= margin
        verdict = "unresolved" if few else "worse"
    elif iqr > margin and max(change["values"]) >= min(parent["values"]):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"bound": bound, "limit": parent["median"] + margin, "parent_iqr": iqr,
            "verdict": verdict}


def summarize(runs: list) -> dict:
    """Medians, quartiles, wins, verdicts and checks of a list of runs.

    Each run is ``{"pair": i, "side": "parent" or "change", "result":
    ..., "report_digest": ...}``.  A pair is won by the side with the
    lower metric (every metric here is better lower); ties count for
    neither side.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run

    def value(run, name):
        if not run["result"].get("correct"):
            return None
        return run["result"]["metrics"][name]["value"]

    bounds = load_bounds()
    metrics = {}
    for name in METRICS:
        sides = {side: [v for r in runs if r["side"] == side
                        for v in [value(r, name)] if v is not None] for side in SIDES}
        wins = {"change": 0, "parent": 0, "ties": 0}
        for pair in by_pair.values():
            if set(pair) != set(SIDES):
                continue
            p, c = value(pair["parent"], name), value(pair["change"], name)
            if p is None or c is None:
                continue
            wins["change" if c < p else "parent" if p < c else "ties"] += 1
        metrics[name] = {
            **{side: {"median": statistics.median(v) if v else None, "quartiles": _quartiles(v),
                      "values": v} for side, v in sides.items()},
            "wins": wins,
        }
        metrics[name]["verdict"] = verdict(metrics[name], len(by_pair))
        metrics[name]["regression"] = regression(metrics[name], bounds[name], len(by_pair))
    digests = {side: sorted({r["report_digest"] for r in runs if r["side"] == side}, key=str)
               for side in SIDES}
    all_correct = all(
        r["result"].get("correct") is True and r["result"].get("failed") == 0 for r in runs
    )
    same_digest = len(digests["parent"]) == 1 and digests["parent"] == digests["change"]
    return {
        "pairs": len(by_pair),
        "metrics": metrics,
        "report_digests": digests,
        "all_correct": all_correct,
        "same_digest": same_digest,
        "ok": all_correct and same_digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        parser.error(
            f"--parent {checkouts['parent']} and --change {checkouts['change']} resolve to "
            "paths of unequal length; clone both to paths of equal length"
        )
    runs, machine = [], None
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for first, side in enumerate(order):
            result, detail, kept = run_once(checkouts[side], args.workload, args.seed)
            runs.append({
                "pair": pair,
                "side": side,
                "ran_first": first == 0,
                "result": result,
                "report_digest": detail.get("report_digest"),
                "wall_s_samples": detail.get("wall_s_samples"),
                **kept,
            })
            print(f"pair {pair} {side}: {json.dumps(result)} {json.dumps(kept)}", file=sys.stderr)
            machine = machine or detail.get("machine")

    summary = summarize(runs)
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {"entries": {}}
    doc["entries"][f"{args.workload}/seed-{args.seed}"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": SECONDS,
        "commits": {side: commit_of(path) for side, path in checkouts.items()},
        "machine": machine,
        **summary,
        "runs": runs,
    }
    doc["entries"] = dict(sorted(doc["entries"].items()))
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    gains = {name: m["verdict"]["gain"] for name, m in summary["metrics"].items()}
    regressions = {name: m["regression"]["verdict"] for name, m in summary["metrics"].items()}
    print(json.dumps({**{k: summary[k] for k in ("pairs", "all_correct", "same_digest", "ok")},
                      "gain": gains, "regression": regressions}))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
