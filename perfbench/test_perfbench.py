"""Tests of the benchmark itself: tracing changes no result, and restores
every binding it makes; counts repeat; BENCHMARK.json matches the code.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import orthoate  # noqa: E402
import orthoate.cli  # noqa: E402
from orthoate.learners.base import NuisanceFits  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import README_ESTIMATORS, WORKLOADS, report_digest  # noqa: E402

SMALL_ESTIMATORS = [dict(e, R=5) if e["kind"] == "higher_order" else e for e in README_ESTIMATORS]

# Small versions of the four workloads: same steps, a second's work.
SMALL = {
    "forest-estimate": replace(
        WORKLOADS["forest-estimate"],
        config=dict(
            WORKLOADS["forest-estimate"].config,
            estimators=SMALL_ESTIMATORS,
            learners=[{"regressor": "forest", "propensity": "forest", "n_trees": 3, "max_depth": 4}],
            simulation={"Q": 300, "p": 2, "r_c": 1.0, "M": 2, "n_treatments": 3},
        ),
    ),
    "lasso-simulate-estimate": replace(
        WORKLOADS["lasso-simulate-estimate"],
        config=dict(
            WORKLOADS["lasso-simulate-estimate"].config,
            estimators=SMALL_ESTIMATORS + [{"kind": "higher_order", "r": 4, "k": 2, "R": 5}],
            simulation={"Q": 600, "p": 3, "r_c": 1.0, "M": 1, "n_treatments": 3},
        ),
    ),
    "sweep-samplesize": replace(
        WORKLOADS["sweep-samplesize"],
        config=dict(
            WORKLOADS["sweep-samplesize"].config,
            estimators=SMALL_ESTIMATORS,
            simulation={"Q": 400, "p": 2, "r_c": 1.0, "M": 2, "n_treatments": 3},
            sweep={"samplesize": [300, 400]},
        ),
    ),
    "verify": replace(
        WORKLOADS["verify"],
        config=dict(WORKLOADS["verify"].config, verify={"rk_pairs": [[2, 2]], "n_draws": 2000}),
    ),
}


def _snapshot() -> dict:
    """Every attribute of every loaded orthoate module, plus NuisanceFits' methods."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "orthoate" or name.startswith("orthoate.")):
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    out.update({("NuisanceFits", attr): value for attr, value in vars(NuisanceFits).items()})
    return out


def _run(workload, work, traced_by=None):
    workload.clear_outputs(work)
    block = traced_by.traced(run_id=1) if traced_by else contextlib.nullcontext()
    with block:
        codes, out, _ = workload.run(work, lambda argv: orthoate.cli.main(argv))
    assert codes == [0] * len(workload.steps)
    return report_digest(work, out)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_keeps_report_bytes_and_restores_bindings(name, tmp_path):
    workload = SMALL[name]
    workload.write_inputs(tmp_path, 7, orthoate.cli.main)
    before = _snapshot()
    untraced = _run(workload, tmp_path)
    t = tracer.Tracer()
    traced = _run(workload, tmp_path, traced_by=t)
    assert traced == untraced
    assert _snapshot() == before
    assert t.spans and t.spans[0][0] == "cli.main"


def test_rebinds_at_caller_modules_and_restores_after_error():
    before = _snapshot()
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.traced(run_id=1):
            from orthoate import cli, estimators, gateaux, learners, simulation

            assert cli.fit_nuisances.__wrapped__ is before[("orthoate.learners", "fit_nuisances")]
            assert simulation.fit_nuisances is cli.fit_nuisances
            assert gateaux.correction_values is estimators.correction_values
            assert learners.fit_lasso_cv is learners.lasso.fit_lasso_cv
            assert NuisanceFits.outcome_matrix is not before[("NuisanceFits", "outcome_matrix")]
            raise RuntimeError("traced code failed")
    assert _snapshot() == before


def test_counts_repeat_and_self_times_cover_the_root_span(tmp_path):
    workload = SMALL["lasso-simulate-estimate"]
    workload.write_inputs(tmp_path, 5, orthoate.cli.main)
    t = tracer.Tracer()
    runs = []
    for _ in range(2):
        _run(workload, tmp_path, traced_by=t)
        runs.append(t.layer_metrics())
    assert all(runs[0][c] == runs[1][c] for c in tracer.COUNTS)
    m = runs[1]
    assert m["learners.fit_lasso.calls"] == 3 * (5 * 3 + 1)  # 3 arms x (5 folds x 3 lambdas + refit)
    assert m["learners.predict.rows"] / m["learners.predict.distinct_rows"] == 3.5
    assert m["dataio.csv.rows"] == 2 * 600  # written by simulate, read by estimate
    lo, hi = t._run_span_range
    roots = [end - start for _, start, end, parent, _ in t.spans[lo:hi] if parent < lo]
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert all(v >= 0 for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(sum(roots), rel=1e-9)


def test_verify_counts_correction_evaluations(tmp_path):
    workload = SMALL["verify"]
    workload.write_inputs(tmp_path, 1, orthoate.cli.main)
    t = tracer.Tracer()
    _run(workload, tmp_path, traced_by=t)
    m = t.layer_metrics()
    # (2,2) and DML at order 2: 2 directions x a 5 x 5 offset grid each.
    assert m["gateaux.check_orthogonality.calls"] == 2
    assert m["gateaux.correction_evals"] == 2 * 2 * 25
    assert m["score.correction_values.elements"] == 2 * 2 * 25 * 2000


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((ROOT / "perfbench" / "meta.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(meta["per_layer"]) == set(run.PER_LAYER_UNITS)
    for name, w in WORKLOADS.items():
        entry = meta["workloads"][name]
        assert entry["config"] == w.config
        assert [list(s) for s in w.steps] == entry["steps"]


def test_refuses_to_run_outside_a_repository(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert stdout.getvalue() == ""
