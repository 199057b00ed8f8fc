"""Golden-bytes regression fixture for every subcommand.

Each case runs CLI steps on a tiny config in a scratch directory and
compares every file it writes, plus a transcript of the commands, their
exit codes and their stdout, with the bytes stored under
``tests/golden/<case>/``.  The only field blanked before comparison is
the sweep summary's ``generated_at`` timestamp.

To rewrite the stored bytes after an intended output change, run from
the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from orthoate.cli import main

from test_cli import zero_propensity_csv

GOLDEN = Path(__file__).parent / "golden"

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')

ESTIMATORS = [
    {"kind": "dr"},
    {"kind": "dml"},
    {"kind": "higher_order", "r": 2, "k": 2, "R": 5},
    {"kind": "higher_order", "r": 4, "k": 2, "R": 5},
]
SMALL_FOREST = {"regressor": "forest", "propensity": "forest", "n_trees": 3, "max_depth": 3}
LASSO_LOGISTIC = {"regressor": "lasso", "propensity": "logistic"}
SIMULATION = {"Q": 120, "p": 2, "r_c": 1.0, "M": 2, "n_treatments": 3}
SIM_DATASETS = ["data/dataset_000.csv", "data/dataset_001.csv"]
ZP_LEARNER = {
    "regressor": "lasso", "propensity": "forest", "n_trees": 20, "max_depth": 8, "min_leaf": 1,
}


def _config(**sections) -> dict:
    cfg = {
        "schema_version": 1,
        "seed": 11,
        "split": {"train": 0.56, "valid": 0.14, "test": 0.30},
        "output": {"dir": "out", "format": "csv"},
        "simulation": SIMULATION,
    }
    cfg.update(sections)
    return cfg


# The zero-propensity file of the CLI tests next to one simulated
# dataset: DML goes infinite on the first only.
ZP_CONFIG = _config(
    seed=2, datasets=["zp.csv", SIM_DATASETS[0]], estimators=ESTIMATORS[:3],
    learners=[ZP_LEARNER], simulation=dict(SIMULATION, Q=300, M=1),
)

# case name -> (config, CLI steps run in order, with --config added).
CASES = {
    "simulate": (_config(), [["simulate", "--out", "data"]]),
    "estimate_training_csv": (
        _config(
            datasets=SIM_DATASETS, estimators=ESTIMATORS,
            learners=[SMALL_FOREST, LASSO_LOGISTIC], moments_from="training",
        ),
        [["simulate", "--out", "data"], ["estimate"]],
    ),
    "estimate_estimation_json": (
        _config(
            datasets=SIM_DATASETS, estimators=ESTIMATORS,
            learners=[SMALL_FOREST, LASSO_LOGISTIC], moments_from="estimation",
            output={"dir": "out", "format": "json"},
        ),
        [["simulate", "--out", "data"], ["estimate"]],
    ),
    "zero_propensity": (ZP_CONFIG, [["simulate", "--out", "data"], ["estimate"]]),
    "zero_propensity_filtered": (
        ZP_CONFIG, [["simulate", "--out", "data"], ["estimate", "--filter-infinite"]],
    ),
    "sweep_noisy_filtered": (
        _config(
            estimators=ESTIMATORS[:3], learners=[LASSO_LOGISTIC, ZP_LEARNER], filter_infinite=True,
            simulation=dict(SIMULATION, propensity_noise_sd=0.5),
            sweep={"samplesize": [100, 120]},
        ),
        [["sweep", "--sweep", "samplesize"]],
    ),
    "sweep_filtered": (
        _config(
            estimators=ESTIMATORS[:3], learners=[ZP_LEARNER], filter_infinite=True,
            sweep={"samplesize": [100, 120]},
        ),
        [["sweep", "--sweep", "samplesize"]],
    ),
    # The widest grid point fixes the drawn law: p = 5 for the dimension
    # grid (below and above the config's p = 2), r_c = 0.9 for the
    # confounding grid.
    "sweep_dimension": (
        _config(
            estimators=ESTIMATORS[:3], learners=[LASSO_LOGISTIC, SMALL_FOREST],
            simulation=dict(SIMULATION, r_c=0.7), sweep={"dimension": [1, 2, 5]},
        ),
        [["sweep", "--sweep", "dimension"]],
    ),
    "sweep_confounding": (
        _config(
            estimators=ESTIMATORS[:3], learners=[LASSO_LOGISTIC, SMALL_FOREST],
            simulation=dict(SIMULATION, p=3, r_c=0.7), sweep={"confounding": [0.4, 0.9]},
        ),
        [["sweep", "--sweep", "confounding"]],
    ),
    "verify": (
        _config(verify={"rk_pairs": [[2, 2], [4, 2]], "n_draws": 2000, "n_moment_sequences": 5}),
        [["verify"]],
    ),
    # Odd and higher residual powers over more than one block of the
    # stencil's row blocks (8,192 draws).
    "verify_odd_powers": (
        _config(verify={"rk_pairs": [[3, 2], [6, 4]], "n_draws": 20_000, "n_moment_sequences": 5}),
        [["verify"]],
    ),
}


def run_case(name: str, work: Path) -> dict:
    """Run one case in ``work``; returns {relative path: bytes} of its outputs."""
    config, steps = CASES[name]
    (work / "cfg.json").write_text(json.dumps(config, indent=1))
    zero_propensity_csv(work / "zp.csv")
    transcript = []
    previous = os.getcwd()
    os.chdir(work)
    try:
        for step in steps:
            argv = step[:1] + ["--config", "cfg.json"] + step[1:]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            transcript.append(f"$ orthoate {' '.join(argv)}\nexit {code}\n{stdout.getvalue()}")
    finally:
        os.chdir(previous)
    outputs = {"transcript.txt": "".join(transcript).encode()}
    for sub in ("data", "out"):
        for path in sorted((work / sub).glob("*")) if (work / sub).is_dir() else []:
            outputs[f"{sub}/{path.name}"] = _GENERATED_AT.sub(
                b'"generated_at": ""', path.read_bytes()
            )
    return outputs


def stored(name: str) -> dict:
    root = GOLDEN / name
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_bytes(name, tmp_path):
    got = run_case(name, tmp_path)
    want = stored(name)
    assert sorted(got) == sorted(want)
    for rel in want:
        assert got[rel] == want[rel], f"{name}/{rel} differs from the golden bytes"


if __name__ == "__main__":
    import shutil
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(case, Path(tmp))
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        for rel, data in outputs.items():
            dest = GOLDEN / case / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(data)
        print(f"wrote {GOLDEN / case} ({len(outputs)} files)", file=sys.stderr)
