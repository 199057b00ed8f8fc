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
from dataclasses import dataclass

import numpy as np

from .estimators import Dataset
from .exceptions import ConfigError, InvalidOrder, OrthoError, ParseError, SchemaError
from .learners import PROPENSITY_MODELS, REGRESSORS, LearnerSpec
from .score import _validate_orders
from .simulation import EstimatorSpec

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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(lo):
    return (lambda v: _is_int(v) and v >= lo), f"an integer >= {lo}"


def _number(test, bounds):
    def check(v):
        return (_is_int(v) or (isinstance(v, float) and math.isfinite(v))) and test(v)
    return check, f"a number {bounds}"


def _nullable(rule):
    return (lambda v: v is None or rule[0](v)), f"null or {rule[1]}"


def _choice(*options):
    quoted = list(map(json.dumps, options))
    text = f"{', '.join(quoted[:-1])} or {quoted[-1]}"
    return (lambda v: isinstance(v, str) and v in options), text


def _list_of(rule, items, non_empty=True):
    text = f"a {'non-empty ' if non_empty else ''}list of {items}"
    return (lambda v: isinstance(v, list) and (v or not non_empty) and all(map(rule[0], v))), text


_OBJECT = (lambda v: isinstance(v, dict)), "an object"
_STRING = (lambda v: isinstance(v, str)), "a string"
_BOOL = (lambda v: isinstance(v, bool)), "true or false"
_PAIR = (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))), "an [r, k] pair"
_POSITIVE = _number(lambda v: v > 0, "> 0")
_NON_NEGATIVE = _number(lambda v: v >= 0, ">= 0")
_SHARE = _number(lambda v: 0 < v <= 1, "in (0, 1]")

# One rule per key of each config section: a predicate and what the value
# "must be".  Rules that tie several keys together follow load_run_config.
CONFIG_RULES = {
    "config": {
        "schema_version": ((lambda v: _is_int(v) and v == SCHEMA_VERSION), f"{SCHEMA_VERSION}"),
        "seed": _integer(0),
        "datasets": _list_of(_STRING, "path strings", non_empty=False),
        "n_treatments": _nullable(_integer(2)),
        "propensity_floor": _number(lambda v: 0 <= v < 0.5, "in [0, 0.5)"),
        "filter_infinite": _BOOL,
        "moments_from": _choice("estimation", "training"),
        "truth_from": _choice("estimation", "full"),
        "estimators": _list_of(_OBJECT, "objects"), "learners": _list_of(_OBJECT, "objects"),
        "split": _OBJECT, "output": _OBJECT, "simulation": _OBJECT, "sweep": _OBJECT,
        "verify": _OBJECT,
    },
    "estimators": {
        "kind": _choice("dr", "dml", "higher_order"),
        "r": _nullable((_is_int, "an integer")), "k": _nullable((_is_int, "an integer")),
        "R": _integer(1),
    },
    "learners": {
        "regressor": _choice(*REGRESSORS), "propensity": _choice(*PROPENSITY_MODELS),
        "lasso_grid": _list_of(_NON_NEGATIVE, "numbers >= 0"), "logistic_l2": _NON_NEGATIVE,
        "n_trees": _integer(1), "max_depth": _nullable(_integer(0)), "min_leaf": _integer(1),
    },
    "split": {"train": _POSITIVE, "valid": _POSITIVE, "test": _POSITIVE},
    "output": {"dir": _STRING, "format": _choice("csv", "json")},
    "simulation": {
        "Q": _integer(10), "p": _integer(1), "r_c": _SHARE, "M": _integer(1),
        "n_treatments": _integer(2), "propensity_noise_sd": _NON_NEGATIVE,
    },
    "sweep": {
        "samplesize": _list_of(_integer(10), "integers >= 10"),
        "dimension": _list_of(_integer(1), "integers >= 1"),
        "confounding": _list_of(_SHARE, "numbers in (0, 1]"),
    },
    "verify": {
        "rk_pairs": _list_of(_PAIR, "[r, k] integer pairs", non_empty=False),
        "include_dml": _BOOL, "dml_max_order": _integer(0), "order": _integer(1),
        "epsilon": _POSITIVE, "n_draws": _integer(100), "n_moment_sequences": _integer(0),
        "pi": _number(lambda v: 0 < v < 1, "in (0, 1)"), "tolerance": _POSITIVE,
    },
}


def config_problem(section: str, key: str, value, where: str) -> str | None:
    """The problem line for ``value`` under its rule in ``CONFIG_RULES``, or None."""
    rule = CONFIG_RULES[section].get(key)
    if rule is None:
        return f"{where}: unknown key"
    test, text = rule
    return None if test(value) else f"{where}: must be {text}, got {json.dumps(value)}"


def _frozen(value):
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def _checked(section: str, raw: dict, where: str, problems: list) -> dict:
    """The values of ``raw`` that pass their rules, lists made tuples; the rest are problems."""
    good = {}
    for key, value in raw.items():
        problem = config_problem(section, key, value, f"{where}.{key}" if where else key)
        if problem:
            problems.append(problem)
        else:
            good[key] = _frozen(value)
    return good


def _section(section: str, raw: dict, where: str, problems: list, build):
    """Check one config object against its rules, then build it; None after any problem."""
    before = len(problems)
    values = _checked(section, raw, where, problems)
    if len(problems) > before:
        return None
    try:
        return build(**values)
    except OrthoError as exc:  # collected, not raised, so all problems surface at once
        problems.append(f"{where}: {exc}")
        return None


# Nested section -> (RunConfig field, builder); a list section holds one object per entry.
_SECTIONS = {
    "estimators": ("estimators", EstimatorSpec), "learners": ("learners", LearnerSpec),
    "split": ("split", lambda train=0.56, valid=0.14, test=0.30: (train, valid, test)),
    "output": ("output", dict), "simulation": ("sim", SimSettings),
    "sweep": ("sweep_grids", dict), "verify": ("verify", VerifySettings),
}


def load_run_config(path) -> RunConfig:
    """Parse and validate a JSON run config, reporting every violation at once."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    problems: list = []
    out = _checked("config", raw, "", problems)
    out.pop("schema_version", None)
    for name, (field, build) in _SECTIONS.items():
        value = out.pop(name, None)
        if isinstance(value, dict):
            out[field] = _section(name, value, name, problems, build)
        elif value is not None:
            # An estimator without a kind is reported like one with a null kind.
            required = {"kind": None} if build is EstimatorSpec else {}
            out[field] = tuple(
                _section(name, {**required, **entry}, f"{name}[{i}]", problems, build)
                for i, entry in enumerate(value)
            )
    for key, value in (out.pop("output", None) or {}).items():
        out[f"output_{key}"] = value

    # Rules that tie several keys together.
    if out.get("split") and abs(sum(out["split"]) - 1.0) > 1e-9:
        problems.append(f"split: ratios must sum to 1, got {out['split']}")
    sim, ver = out.get("sim"), out.get("verify")
    if sim and round(sim.p * sim.r_c) < 1:
        problems.append("simulation: p * r_c must round to at least one confounder")
    for r, k in ver.rk_pairs if ver else ():
        try:
            _validate_orders(r, k)
        except InvalidOrder as exc:
            problems.append(f"verify.rk_pairs: {exc}")
    # Reports name a learner by its label alone, so a repeated label
    # would pool two learners' results.
    labels = [spec and spec.label for spec in out.get("learners", ())]
    for i, label in enumerate(labels):
        first = labels.index(label)
        if label and first < i:
            problems.append(
                f"learners[{first}] and learners[{i}]: both have the label '{label}'; reports "
                "identify a learner by its label, so each regressor+propensity pair may appear once"
            )

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
