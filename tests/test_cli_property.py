"""Whatever dataset file or run config it is given, the CLI ends cleanly.

Hypothesis drives ``cli.main`` over mutated dataset CSVs (the reader
mutations of ``test_dataio`` plus columns scaled to finite extremes)
and over mutated run configs (the drops and replacements of
``test_dataio`` applied to a small config, under each subcommand).  Every example must
end in exit 0, 1 or 2, with an ``error:`` or ``config error:`` line
when it is not 0, and nothing may escape ``main`` as an exception,
which covers tracebacks and, since the suite turns ``RuntimeWarning``
into an error, stray warnings.  The one other documented exit, 3, is
allowed for ``verify`` alone and must come with a ``FAIL`` line: a
mutated tolerance or step size can make a check fail.

Both properties are derandomized, so every run of the suite replays the
same examples; raise ``max_examples`` and drop ``derandomize`` to search
further.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orthoate import Dataset, save_csv_dataset
from orthoate.cli import main

from test_dataio import MUTATIONS, OTHER_VALUES, _at, _mutate, _paths

# Factors that keep columns drawn from [-3, 3] finite but push them to
# the edges of the double range.
SCALES = (1.0, 1e300, -1e300, 1e200, 1e-300, 5e-324)
SCALED = ("y", "Z", "truth")

ESTIMATORS = [{"kind": "dr"}, {"kind": "dml"}, {"kind": "higher_order", "r": 2, "k": 2, "R": 5}]
LEARNERS = [
    {"regressor": "lasso", "propensity": "logistic"},
    {"regressor": "forest", "propensity": "forest", "n_trees": 3, "max_depth": 3},
]

# Every size is set small.  Dropping one of KEPT would bring back a
# default sized for real runs (4,000 rows, 20 datasets, 200,000 draws),
# so the config property replaces them but never drops them.
SMALL_CONFIG = {
    "schema_version": 1,
    "seed": 3,
    "datasets": ["data/dataset_000.csv"],
    "estimators": ESTIMATORS,
    "learners": LEARNERS[:1],
    "output": {"dir": "out", "format": "csv"},
    "simulation": {"Q": 60, "p": 2, "r_c": 1.0, "M": 1, "n_treatments": 3},
    "sweep": {"samplesize": [50, 60]},
    "verify": {"rk_pairs": [[2, 2]], "n_draws": 500, "n_moment_sequences": 2},
}
KEPT = {("simulation",), ("simulation", "Q"), ("simulation", "M"), ("verify",), ("verify", "n_draws")}


def run_cli(work, argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)`` run in ``work``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(work), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv, code, out, err) -> None:
    event(f"{argv[0]} exit {code}")
    assert "Traceback" not in err
    if argv[0] == "verify" and code == 3:
        assert "FAIL" in out, out
        return
    assert code in (0, 1, 2), (code, err)
    if code:
        assert any(line.startswith(("error:", "config error:")) for line in err.splitlines()), err


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    data=st.data(),
    n=st.integers(20, 60),
    p=st.integers(1, 2),
    arms=st.integers(2, 3),
    with_truth=st.booleans(),
    scaled=st.sampled_from(SCALED),
    scale=st.sampled_from(SCALES),
    mutation=st.one_of(st.just("none"), st.sampled_from(MUTATIONS)),
    filter_infinite=st.booleans(),
)
def test_estimate_on_mutated_dataset_ends_cleanly(
    tmp_path_factory, data, n, p, arms, with_truth, scaled, scale, mutation, filter_infinite
):
    work = tmp_path_factory.mktemp("estimate")
    modest = st.floats(-3.0, 3.0)
    columns = {
        "y": data.draw(arrays(np.float64, n, elements=modest), label="y"),
        "Z": data.draw(arrays(np.float64, (n, p), elements=modest), label="Z"),
        "truth": data.draw(arrays(np.float64, (n, arms), elements=modest), label="truth"),
    }
    columns[scaled] = columns[scaled] * scale
    labels = data.draw(st.one_of(
        st.just(np.arange(n) % arms), arrays(np.int64, n, elements=st.integers(0, arms - 1)),
    ), label="labels")
    ds = Dataset(
        y=columns["y"], d=labels, Z=columns["Z"], n_treatments=arms,
        truth=columns["truth"] if with_truth else None,
    )
    save_csv_dataset(ds, work / "ds.csv")
    text = (work / "ds.csv").read_bytes().decode()
    (work / "ds.csv").write_bytes(_mutate(text, mutation, data).encode())
    config = {
        "seed": 5, "datasets": ["ds.csv"], "estimators": ESTIMATORS, "learners": LEARNERS,
        "filter_infinite": filter_infinite,
    }
    (work / "cfg.json").write_text(json.dumps(config))
    argv = ["estimate", "--config", "cfg.json"]
    assert_clean_exit(argv, *run_cli(work, argv))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(["simulate", "estimate", "sweep", "verify"]))
def test_mutated_config_ends_cleanly(tmp_path_factory, data, command):
    work = tmp_path_factory.mktemp("config")
    cfg = copy.deepcopy(SMALL_CONFIG)
    assert run_cli(work, ["simulate", "--config", _write(work, cfg), "--out", "data"])[0] == 0
    # Unknown keys are left to the loader's own property: they only ever
    # end in a config error, before any subcommand runs.
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(cfg))
        action = data.draw(st.sampled_from(["drop", "replace"]), label="action")
        candidates = [p for p in paths[1:] if action == "replace" or p not in KEPT]
        path = data.draw(st.sampled_from(candidates), label="path")
        if action == "drop":
            del _at(cfg, path[:-1])[path[-1]]
        else:
            _at(cfg, path[:-1])[path[-1]] = data.draw(OTHER_VALUES, label="value")
    argv = [command, "--config", _write(work, cfg)]
    if command == "sweep":
        argv += ["--sweep", data.draw(st.sampled_from(["samplesize", "dimension", "noise"]))]
    assert_clean_exit(argv, *run_cli(work, argv))


def _write(work, cfg) -> str:
    (work / "cfg.json").write_text(json.dumps(cfg))
    return "cfg.json"
