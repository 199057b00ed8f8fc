"""File formats: benchmark CSV datasets, JSON run configs, result reports.

Dataset CSV schema (canonical, strict): header row with columns
``y``, ``d``, ``z1..zp`` and optionally ``mu0..mu{n-1}`` (true
per-treatment outcome means); every cell must parse to a finite number,
and treatment labels must be integers inside the declared range.

Result payloads are dicts with ``columns``/``rows`` plus metadata.
JSON keeps the full payload; CSV keeps the bare table.  Non-finite
values serialise as the strings ``inf``/``-inf``/``nan`` and round-trip
back; finite floats are written with ``repr`` so they round-trip
exactly.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .estimators import Dataset
from .exceptions import ConfigError, ParseError, SchemaError
from .learners import LearnerSpec
from .simulation import SWEEP_KINDS, EstimatorSpec

SCHEMA_VERSION = 1

_Z_PATTERN = re.compile(r"^z([0-9]+)$")
_MU_PATTERN = re.compile(r"^mu([0-9]+)$")


def _column_layout(header):
    names = [h.strip() for h in header]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate column names in header")
    z_cols, mu_cols, known = {}, {}, {"y", "d"}
    for name in names:
        zm, mm = _Z_PATTERN.match(name), _MU_PATTERN.match(name)
        if zm:
            z_cols[int(zm.group(1))] = name
        elif mm:
            mu_cols[int(mm.group(1))] = name
    unknown = [n for n in names if n not in known and not _Z_PATTERN.match(n) and not _MU_PATTERN.match(n)]
    if unknown:
        raise SchemaError(f"unknown columns {unknown}; expected y, d, z1..zp, mu0..mu(n-1)")
    for required in ("y", "d"):
        if required not in names:
            raise SchemaError(f"missing required column '{required}'")
    if not z_cols or sorted(z_cols) != list(range(1, len(z_cols) + 1)):
        raise SchemaError("covariate columns must be exactly z1..zp")
    if mu_cols and sorted(mu_cols) != list(range(len(mu_cols))):
        raise SchemaError("truth columns must be exactly mu0..mu(n-1)")
    return names, len(z_cols), len(mu_cols)


def load_csv_dataset(path, n_treatments: int | None = None) -> Dataset:
    """Read a dataset CSV; every violation is an explicit error.

    ParseError carries the 1-based data row and column name of the
    first missing, unparsable or non-finite cell; SchemaError covers
    header problems and treatment labels outside 0..n-1.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        names, p, n_mu = _column_layout(header)
        col_of = {name: i for i, name in enumerate(names)}
        rows = []
        for r, raw in enumerate(reader, start=1):
            if len(raw) != len(names):
                raise ParseError(f"{path}: row {r} has {len(raw)} cells, expected {len(names)}")
            vals = np.empty(len(names))
            for name, c in col_of.items():
                cell = raw[c].strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(f"{path}: row {r}, column '{name}': cannot parse {cell!r}") from None
                if not math.isfinite(v):
                    raise ParseError(f"{path}: row {r}, column '{name}': non-finite value {cell!r}")
                vals[c] = v
            rows.append(vals)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    table = np.asarray(rows)
    y = table[:, col_of["y"]]
    d_raw = table[:, col_of["d"]]
    if np.any(d_raw != np.round(d_raw)):
        bad = int(np.argmax(d_raw != np.round(d_raw))) + 1
        raise SchemaError(f"{path}: row {bad}: treatment label {d_raw[bad - 1]} is not an integer")
    d = d_raw.astype(int)
    n_treat = n_treatments if n_treatments is not None else int(d.max()) + 1
    if n_mu and n_treatments is not None and n_mu != n_treat:
        raise SchemaError(f"{path}: {n_mu} truth columns but n_treatments={n_treat}")
    if d.min() < 0 or d.max() >= n_treat:
        raise SchemaError(
            f"{path}: treatment labels span {d.min()}..{d.max()}, outside 0..{n_treat - 1}"
        )
    Z = np.column_stack([table[:, col_of[f"z{j}"]] for j in range(1, p + 1)])
    truth = (
        np.column_stack([table[:, col_of[f"mu{i}"]] for i in range(n_mu)]) if n_mu else None
    )
    n_treat = max(n_treat, n_mu)
    return Dataset(y=y, d=d, Z=Z, truth=truth, n_treatments=n_treat)


def save_csv_dataset(ds: Dataset, path) -> None:
    """Write a dataset in the canonical column schema."""
    header = ["y", "d"] + [f"z{j}" for j in range(1, ds.p + 1)]
    if ds.truth is not None:
        header += [f"mu{i}" for i in range(ds.n_treatments)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for m in range(ds.n):
            row = [repr(float(ds.y[m])), str(int(ds.d[m]))]
            row += [repr(float(v)) for v in ds.Z[m]]
            if ds.truth is not None:
                row += [repr(float(v)) for v in ds.truth[m]]
            writer.writerow(row)


@dataclass(frozen=True)
class SimSettings:
    """Synthetic-data settings shared by the simulate and sweep commands."""

    Q: int = 4000
    p: int = 2
    r_c: float = 1.0
    M: int = 20
    n_treatments: int = 3
    propensity_noise_sd: float = 0.0


@dataclass(frozen=True)
class VerifySettings:
    """Settings for the coefficient and orthogonality verification command."""

    rk_pairs: tuple = ((2, 2),)
    include_dml: bool = True
    dml_max_order: int = 1
    order: int = 2
    epsilon: float = 0.05
    n_draws: int = 200_000
    n_moment_sequences: int = 50
    pi: float = 0.3
    tolerance: float = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; one JSON file drives every subcommand."""

    datasets: tuple = ()
    n_treatments: int | None = None
    estimators: tuple = (
        EstimatorSpec("dr"),
        EstimatorSpec("dml"),
        EstimatorSpec("higher_order", r=2, k=2, R=100),
    )
    learners: tuple = (LearnerSpec(),)
    split: tuple = (0.56, 0.14, 0.30)
    seed: int = 0
    propensity_floor: float = 0.0
    filter_infinite: bool = False
    moments_from: str = "estimation"
    truth_from: str = "estimation"
    output_dir: str = "out"
    output_format: str = "csv"
    sim: SimSettings = SimSettings()
    sweep_grids: dict | None = None
    verify: VerifySettings = VerifySettings()


_TOP_KEYS = {
    "schema_version", "seed", "datasets", "n_treatments", "estimators", "learners",
    "split", "propensity_floor", "filter_infinite", "moments_from", "truth_from",
    "output", "simulation", "sweep", "verify",
}


def _check_keys(section: dict, allowed, where: str, problems: list) -> None:
    for key in section:
        if key not in allowed:
            problems.append(f"{where}: unknown key '{key}'")


def _estimator_from_entry(entry: dict, where: str, problems: list):
    if not isinstance(entry, dict):
        problems.append(f"{where}: must be an object with a 'kind' key")
        return None
    _check_keys(entry, {"kind", "r", "k", "R"}, where, problems)
    try:
        return EstimatorSpec(
            kind=entry.get("kind", ""),
            r=entry.get("r"),
            k=entry.get("k"),
            R=int(entry.get("R", 100)),
        )
    except Exception as exc:  # collected, not raised, so all problems surface at once
        problems.append(f"{where}: {exc}")
        return None


def _learner_from_entry(entry: dict, where: str, problems: list):
    if not isinstance(entry, dict):
        problems.append(f"{where}: must be an object of learner options")
        return None
    allowed = {f.name for f in fields(LearnerSpec)}
    _check_keys(entry, allowed, where, problems)
    try:
        kwargs = dict(entry)
        if "lasso_grid" in kwargs:
            kwargs["lasso_grid"] = tuple(kwargs["lasso_grid"])
        return LearnerSpec(**kwargs)
    except Exception as exc:
        problems.append(f"{where}: {exc}")
        return None


def load_run_config(path) -> RunConfig:
    """Parse and validate a JSON run config, reporting every violation at once."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    problems: list = []
    _check_keys(raw, _TOP_KEYS, "config", problems)
    out: dict = {}

    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        problems.append(f"schema_version: expected {SCHEMA_VERSION}, got {version}")

    datasets = raw.get("datasets", [])
    if not isinstance(datasets, list) or not all(isinstance(x, str) for x in datasets):
        problems.append("datasets: must be a list of paths")
    else:
        out["datasets"] = tuple(datasets)

    if "n_treatments" in raw and raw["n_treatments"] is not None:
        if not isinstance(raw["n_treatments"], int) or raw["n_treatments"] < 2:
            problems.append("n_treatments: must be an integer >= 2")
        else:
            out["n_treatments"] = raw["n_treatments"]

    if "estimators" in raw:
        specs = []
        if not isinstance(raw["estimators"], list) or not raw["estimators"]:
            problems.append("estimators: must be a non-empty list")
        else:
            for i, entry in enumerate(raw["estimators"]):
                spec = _estimator_from_entry(entry, f"estimators[{i}]", problems)
                if spec is not None:
                    specs.append(spec)
            out["estimators"] = tuple(specs)

    if "learners" in raw:
        specs = []
        if not isinstance(raw["learners"], list) or not raw["learners"]:
            problems.append("learners: must be a non-empty list")
        else:
            first_with = {}
            for i, entry in enumerate(raw["learners"]):
                spec = _learner_from_entry(entry, f"learners[{i}]", problems)
                if spec is None:
                    continue
                specs.append(spec)
                # Reports name a learner by its label alone, so a repeated
                # label would pool two learners' results.
                if spec.label in first_with:
                    problems.append(
                        f"learners[{first_with[spec.label]}] and learners[{i}]: "
                        f"both have the label '{spec.label}'; reports identify a learner "
                        "by its label, so each regressor+propensity pair may appear once"
                    )
                else:
                    first_with[spec.label] = i
            out["learners"] = tuple(specs)

    if "split" in raw:
        sec = raw["split"]
        if not isinstance(sec, dict):
            problems.append("split: must be an object with train/valid/test")
        else:
            _check_keys(sec, {"train", "valid", "test"}, "split", problems)
            ratios = (sec.get("train", 0.56), sec.get("valid", 0.14), sec.get("test", 0.30))
            try:
                ratios = tuple(float(r) for r in ratios)
                if any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
                    raise ValueError
                out["split"] = ratios
            except (TypeError, ValueError):
                problems.append(f"split: ratios must be positive and sum to 1, got {ratios}")

    if "seed" in raw:
        if not isinstance(raw["seed"], int) or raw["seed"] < 0:
            problems.append("seed: must be a non-negative integer")
        else:
            out["seed"] = raw["seed"]

    if "propensity_floor" in raw:
        floor = raw["propensity_floor"]
        if not isinstance(floor, (int, float)) or not 0.0 <= float(floor) < 0.5:
            problems.append("propensity_floor: must lie in [0, 0.5)")
        else:
            out["propensity_floor"] = float(floor)

    if "filter_infinite" in raw:
        if not isinstance(raw["filter_infinite"], bool):
            problems.append("filter_infinite: must be a boolean")
        else:
            out["filter_infinite"] = raw["filter_infinite"]

    if "moments_from" in raw:
        if raw["moments_from"] not in ("estimation", "training"):
            problems.append("moments_from: must be 'estimation' or 'training'")
        else:
            out["moments_from"] = raw["moments_from"]

    if "truth_from" in raw:
        if raw["truth_from"] not in ("estimation", "full"):
            problems.append("truth_from: must be 'estimation' or 'full'")
        else:
            out["truth_from"] = raw["truth_from"]

    if "output" in raw:
        sec = raw["output"]
        if not isinstance(sec, dict):
            problems.append("output: must be an object")
        else:
            _check_keys(sec, {"dir", "format"}, "output", problems)
            fmt = sec.get("format", "csv")
            if fmt not in ("csv", "json"):
                problems.append(f"output.format: must be 'csv' or 'json', got {fmt!r}")
            else:
                out["output_format"] = fmt
            out["output_dir"] = str(sec.get("dir", "out"))

    if "simulation" in raw:
        sec = raw["simulation"]
        if not isinstance(sec, dict):
            problems.append("simulation: must be an object")
        else:
            allowed = {f.name for f in fields(SimSettings)}
            _check_keys(sec, allowed, "simulation", problems)
            try:
                sim = SimSettings(**{k: v for k, v in sec.items() if k in allowed})
                if sim.Q < 10 or sim.M < 1 or sim.p < 1 or not 0 < sim.r_c <= 1:
                    raise ValueError("need Q >= 10, M >= 1, p >= 1, r_c in (0, 1]")
                if sim.propensity_noise_sd < 0:
                    raise ValueError("propensity_noise_sd must be >= 0")
                out["sim"] = sim
            except (TypeError, ValueError) as exc:
                problems.append(f"simulation: {exc}")

    if "sweep" in raw:
        sec = raw["sweep"]
        if not isinstance(sec, dict):
            problems.append("sweep: must be an object mapping kind -> grid values")
        else:
            _check_keys(sec, set(SWEEP_KINDS), "sweep", problems)
            grids = {}
            for kind, vals in sec.items():
                if kind not in SWEEP_KINDS:
                    continue
                if not isinstance(vals, list) or not vals:
                    problems.append(f"sweep.{kind}: must be a non-empty list")
                else:
                    grids[kind] = tuple(vals)
            out["sweep_grids"] = grids

    if "verify" in raw:
        sec = raw["verify"]
        if not isinstance(sec, dict):
            problems.append("verify: must be an object")
        else:
            allowed = {f.name for f in fields(VerifySettings)}
            _check_keys(sec, allowed, "verify", problems)
            kwargs = {k: v for k, v in sec.items() if k in allowed}
            if "rk_pairs" in kwargs:
                try:
                    pairs = tuple((int(r), int(k)) for r, k in kwargs["rk_pairs"])
                    for r, k in pairs:
                        if not 2 <= k <= r <= 16:
                            problems.append(
                                f"verify.rk_pairs: k must satisfy 2 <= k <= r <= 16, got ({r}, {k})"
                            )
                    kwargs["rk_pairs"] = pairs
                except (TypeError, ValueError):
                    problems.append("verify.rk_pairs: must be a list of [r, k] pairs")
                    kwargs.pop("rk_pairs")
            try:
                ver = VerifySettings(**kwargs)
                if not 0 < ver.pi < 1:
                    raise ValueError("pi must lie in (0, 1)")
                if ver.order < 1 or ver.n_draws < 100 or ver.epsilon <= 0:
                    raise ValueError("need order >= 1, n_draws >= 100, epsilon > 0")
                out["verify"] = ver
            except (TypeError, ValueError) as exc:
                problems.append(f"verify: {exc}")

    if problems:
        raise ConfigError(f"{path}: invalid config:\n  " + "\n  ".join(problems))
    return RunConfig(**out)


def _encode_value(v):
    if isinstance(v, (np.floating, float)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.ndarray):
        return [_encode_value(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    return v


def _csv_cell(v) -> str:
    v = _encode_value(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def write_report(payload: dict, path, fmt: str = "csv") -> None:
    """Serialise a columns/rows payload; see the module docstring for conventions."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(_encode_value(payload), fh, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ConfigError(f"unknown report format '{fmt}'")
    columns = payload["columns"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in payload.get("rows", []):
            writer.writerow([_csv_cell(row.get(c)) for c in columns])


def _parse_cell(cell: str):
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)  # handles inf/-inf/nan spellings
    except ValueError:
        return cell


def read_report_csv(path) -> dict:
    """Read back a report table written by :func:`write_report`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            columns = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty report") from None
        rows = [dict(zip(columns, map(_parse_cell, raw))) for raw in reader]
    return {"columns": columns, "rows": rows}
