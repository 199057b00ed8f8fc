"""Workloads of the orthoate benchmark: inputs, CLI steps and report checks.

Each workload is one run config plus the CLI steps that make one timed
operation.  All of a workload's files live in a work directory:

    <work>/inputs/config.json   the run config (written during set-up)
    <work>/inputs/data/         datasets written during set-up, if any
    <work>/data/                datasets written by a timed ``simulate`` step
    <work>/out/                 reports written by the timed steps

Configs use the object form of ``split``; the list form shown in the
README is rejected by the config parser today.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

SPLIT = {"train": 0.56, "valid": 0.14, "test": 0.30}
README_ESTIMATORS = [
    {"kind": "dr"},
    {"kind": "dml"},
    {"kind": "higher_order", "r": 2, "k": 2, "R": 100},
]
LASSO_LOGISTIC = [{"regressor": "lasso", "propensity": "logistic"}]
FOREST_FOREST = [{"regressor": "forest", "propensity": "forest"}]
README_SIMULATION = {"Q": 4000, "p": 2, "r_c": 1.0, "n_treatments": 3}

# Estimator labels whose mean relative pairwise-ATE error is read from
# the summary report.
EPS_LABELS = {"eps_ate_ho22": "ho(2,2)", "eps_ate_dml": "dml"}

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config`` holds the run-config sections besides seed, datasets and
    output.  ``steps`` are the CLI argument lists of one operation, with
    ``{data}`` standing for ``<work>/data``.  An ``estimate`` step reads
    the ``simulation.M`` datasets a ``simulate`` step wrote, or, without
    one, datasets the set-up writes with ``simulate``.
    """

    name: str
    why: str
    config: dict
    steps: tuple

    @property
    def commands(self) -> list:
        return [step[0] for step in self.steps]

    @property
    def pregenerate(self) -> bool:
        return "estimate" in self.commands and "simulate" not in self.commands

    @property
    def has_eps(self) -> bool:
        """Whether the steps write a summary with eps_ate rows."""
        return "estimate" in self.commands or "sweep" in self.commands

    def config_path(self, work: Path) -> Path:
        return work / "inputs" / "config.json"

    def run_config(self, work: Path, seed: int) -> dict:
        cfg = {"schema_version": 1, "seed": seed}
        if "estimate" in self.commands:
            data = work / "inputs" / "data" if self.pregenerate else work / "data"
            n_datasets = self.config["simulation"]["M"]
            cfg["datasets"] = [str(data / f"dataset_{m:03d}.csv") for m in range(n_datasets)]
        cfg["output"] = {"dir": str(work / "out"), "format": "csv"}
        cfg.update(self.config)
        return cfg

    def write_inputs(self, work: Path, seed: int, cli_main) -> None:
        """Write the config, and the pregenerated datasets through ``simulate``."""
        path = self.config_path(work)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.run_config(work, seed), indent=2, sort_keys=True) + "\n")
        if self.pregenerate:
            argv = ["simulate", "--config", str(path), "--out", str(work / "inputs" / "data")]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"set-up step {' '.join(argv)} exited {code}")

    def argvs(self, work: Path) -> list:
        config = str(self.config_path(work))
        data = str(work / "data")
        return [
            [step[0], "--config", config] + [a.replace("{data}", data) for a in step[1:]]
            for step in self.steps
        ]

    def clear_outputs(self, work: Path) -> None:
        for sub in ("data", "out"):
            shutil.rmtree(work / sub, ignore_errors=True)

    def run(self, work: Path, cli_main) -> tuple:
        """Run the steps once; returns (exit codes, captured stdout, captured stderr)."""
        codes, out, err = [], io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in self.argvs(work):
                codes.append(cli_main(argv))
        return codes, out.getvalue(), err.getvalue()

    def eps(self, work: Path) -> dict:
        """Mean relative pairwise-ATE error per estimator, from the summary report.

        ``estimate`` writes one eps_ate per estimator; a sweep summary has
        one per grid value, and their mean is taken.
        """
        out = work / "out"
        summary = out / "summary.csv"
        if summary.exists():
            with open(summary, newline="") as fh:
                rows = list(csv.DictReader(fh))
        else:
            rows = []
            for path in sorted(out.glob("sweep_*_summary.json")):
                rows += json.loads(path.read_text())["rows"]
        result = {}
        for metric, label in EPS_LABELS.items():
            values = [float(r["eps_ate"]) for r in rows if r["estimator"] == label]
            result[metric] = statistics.fmean(values) if values else float("nan")
        return result


def _digest(work: Path, subdirs, trailer: bytes = b"") -> str:
    """SHA-256 of every file under the given subdirectories of ``work``.

    The sweep summary's ``generated_at`` timestamp is the one documented
    non-deterministic field and is blanked before hashing.
    """
    h = hashlib.sha256()
    for sub in subdirs:
        root = work / sub
        if not root.exists():
            continue
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(work)).encode() + b"\0")
            if path.name.endswith("_summary.json"):
                h.update(_GENERATED_AT.sub(b'"generated_at": ""', path.read_bytes()))
                continue
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    h.update(trailer)
    return h.hexdigest()


def report_digest(work: Path, stdout_text: str) -> str:
    """Digest of the reports and datasets the steps wrote, plus their stdout."""
    return _digest(work, ("data", "out"), b"\0stdout\0" + stdout_text.encode())


def inputs_digest(work: Path) -> str:
    return _digest(work, ("inputs",))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="forest-estimate",
            why="forest+forest estimate on two README-sized datasets: the forest fit and "
            "repeated forest prediction dominate; lasso, CSV I/O and Gateaux work do almost nothing",
            config={
                "estimators": README_ESTIMATORS,
                "learners": FOREST_FOREST,
                "split": SPLIT,
                "simulation": dict(README_SIMULATION, M=2),
            },
            steps=(("estimate",),),
        ),
        Workload(
            name="lasso-simulate-estimate",
            why="simulate then estimate a 100k-row file: the only workload that writes and reads "
            "large dataset CSVs, with lasso-CV and logistic fits at large n; no forest code",
            config={
                "estimators": README_ESTIMATORS + [{"kind": "higher_order", "r": 4, "k": 2, "R": 100}],
                "learners": LASSO_LOGISTIC,
                "split": SPLIT,
                "simulation": {"Q": 100_000, "p": 10, "r_c": 1.0, "M": 1, "n_treatments": 3},
            },
            steps=(("simulate", "--out", "{data}"), ("estimate",)),
        ),
        Workload(
            name="sweep-samplesize",
            why="README samplesize sweep: many small in-memory datasets, no dataset CSVs; "
            "per-call overhead of lasso-CV, logistic fits and resampling passes dominates",
            config={
                "estimators": README_ESTIMATORS,
                "learners": LASSO_LOGISTIC,
                "split": SPLIT,
                "simulation": dict(README_SIMULATION, M=20),
                "sweep": {"samplesize": [1000, 2000, 4000]},
            },
            steps=(("sweep", "--sweep", "samplesize"),),
        ),
        Workload(
            name="verify",
            why="README verify block: the only workload that runs the Gateaux grid, with "
            "full-sample score evaluations at 200k draws and the largest memory footprint",
            config={
                "simulation": dict(README_SIMULATION, M=1),
                "verify": {"rk_pairs": [[2, 2], [4, 2]], "n_draws": 200_000},
            },
            steps=(("verify",),),
        ),
    )
}
