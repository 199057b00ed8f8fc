import copy
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orthoate import (
    ConfigError,
    Dataset,
    EstimatorSpec,
    LearnerSpec,
    ParseError,
    RunConfig,
    SchemaError,
    SimConfig,
    VerifySettings,
    load_csv_dataset,
    load_run_config,
    read_report_csv,
    save_csv_dataset,
    write_report,
)
from csv_reference import save_csv_dataset_reference

from orthoate import dataio
from orthoate.dataio import CONFIG_RULES
from orthoate.simulation import SWEEP_KINDS

FIXTURE = """y,d,z1,z2,mu0,mu1
1.5,0,0.1,-0.2,1.0,2.0
-0.25,1,0.3,0.4,1.1,2.1
3.0,0,-1.0,2.5,0.9,1.9
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_row_fixture(self, tmp_path):
        ds = load_csv_dataset(write(tmp_path, "a.csv", FIXTURE))
        assert ds.n == 3 and ds.p == 2 and ds.n_treatments == 2
        np.testing.assert_array_equal(ds.y, [1.5, -0.25, 3.0])
        np.testing.assert_array_equal(ds.d, [0, 1, 0])
        assert ds.truth.shape == (3, 2)

    def test_na_cell_names_row(self, tmp_path):
        bad = FIXTURE.replace("-0.25", "NA")
        with pytest.raises(ParseError, match="row 2"):
            load_csv_dataset(write(tmp_path, "b.csv", bad))

    def test_non_finite_cell_rejected(self, tmp_path):
        bad = FIXTURE.replace("2.5", "inf")
        with pytest.raises(ParseError, match="z2"):
            load_csv_dataset(write(tmp_path, "c.csv", bad))

    def test_label_out_of_declared_range(self, tmp_path):
        bad = FIXTURE.replace("-0.25,1,", "-0.25,5,")
        with pytest.raises(SchemaError):
            load_csv_dataset(write(tmp_path, "d.csv", bad), n_treatments=2)

    def test_non_integer_label(self, tmp_path):
        bad = FIXTURE.replace("-0.25,1,", "-0.25,1.5,")
        with pytest.raises(SchemaError):
            load_csv_dataset(write(tmp_path, "e.csv", bad))

    def test_covariate_gap_rejected(self, tmp_path):
        bad = FIXTURE.replace("z2", "z3")
        with pytest.raises(SchemaError, match="z"):
            load_csv_dataset(write(tmp_path, "f.csv", bad))

    def test_unknown_column_rejected(self, tmp_path):
        bad = FIXTURE.replace("mu1", "weight")
        with pytest.raises(SchemaError):
            load_csv_dataset(write(tmp_path, "g.csv", bad))

    def test_incomplete_truth_block_rejected(self, tmp_path):
        lines = [",".join(row.split(",")[:-1]) for row in FIXTURE.strip().split("\n")]
        with pytest.raises((SchemaError, Exception)):
            load_csv_dataset(write(tmp_path, "h.csv", "\n".join(lines) + "\n"), n_treatments=2)

    def test_missing_required_column(self, tmp_path):
        bad = FIXTURE.replace("y,", "outcome,")
        with pytest.raises(SchemaError, match="y"):
            load_csv_dataset(write(tmp_path, "i.csv", bad))

    def test_save_and_reload_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            y=rng.normal(size=20) * 1e-15,
            d=rng.integers(0, 3, 20),
            Z=rng.normal(size=(20, 2)),
            truth=rng.normal(size=(20, 3)),
            n_treatments=3,
        )
        path = tmp_path / "round.csv"
        save_csv_dataset(ds, path)
        back = load_csv_dataset(path)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.d, ds.d)
        np.testing.assert_array_equal(back.Z, ds.Z)
        np.testing.assert_array_equal(back.truth, ds.truth)

    @pytest.mark.parametrize("n_treatments", [None, 2])
    @pytest.mark.parametrize("label", ["1e300", "-1e300", "9223372036854775808", "-1"])
    def test_unrepresentable_label_names_row(self, tmp_path, label, n_treatments):
        # Labels outside int64 used to wrap in the cast, with a RuntimeWarning.
        bad = FIXTURE.replace("-0.25,1,", f"-0.25,{label},")
        with pytest.raises(SchemaError, match=r"row 2: treatment label \S+ is out of range"):
            load_csv_dataset(write(tmp_path, "j.csv", bad), n_treatments=n_treatments)

    @pytest.mark.parametrize(
        "body, error, message",
        [("", SchemaError, "no data rows"), ("\r\n\r\n", ParseError, "row 1 has 0 cells")],
    )
    def test_empty_body_raises_without_warning(self, tmp_path, body, error, message):
        path = tmp_path / "k.csv"
        path.write_bytes(("y,d,z1\r\n" + body).encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error, match=message):
                load_csv_dataset(path)
        assert [str(w.message) for w in caught] == []


# Finite doubles at the edges: signed zero, the smallest subnormal, the largest.
EDGE_DOUBLES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


def random_bit_doubles(rng, shape):
    """Finite doubles from uniform random bits, so every exponent turns up."""
    x = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    x[~np.isfinite(x)] = 1.0
    flat = x.reshape(-1)
    flat[: len(EDGE_DOUBLES)] = EDGE_DOUBLES[: flat.size]
    return x


def random_dataset(n, with_truth, seed):
    rng = np.random.default_rng(seed)
    return Dataset(
        y=random_bit_doubles(rng, n),
        d=np.arange(n) % 3,
        Z=random_bit_doubles(rng, (n, 2)),
        truth=random_bit_doubles(rng, (n, 3)) if with_truth else None,
        n_treatments=3,
    )


def dataset_bytes(ds):
    truth = None if ds.truth is None else ds.truth.tobytes()
    return ds.y.tobytes(), ds.d.tobytes(), ds.Z.tobytes(), truth, ds.n_treatments


@pytest.mark.parametrize("path_taken", ["fast", "strict"])
def test_loaded_dataset_keeps_only_its_own_bytes(tmp_path, path_taken):
    # A column kept as a view would pin the whole parse table: about 1.9x these bytes.
    ds = random_dataset(2000, True, seed=7)
    path = tmp_path / "kept.csv"
    save_csv_dataset(ds, path)
    with mock.patch.object(dataio, "_fast_table", dataio._fast_table if path_taken == "fast"
                           else lambda path, n_cols: None):
        load_csv_dataset(path)  # first call's one-off allocations stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            back = load_csv_dataset(path)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    nbytes = sum(a.nbytes for a in (back.y, back.d, back.Z, back.truth))
    # The slack is the Python objects around the data: the Dataset and four
    # array headers with their shapes and strides, 1.1-1.5 KB.
    assert nbytes <= kept <= nbytes + 4096


class TestCsvWriter:
    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193])
    def test_bytes_equal_reference_writer(self, tmp_path, n, with_truth):
        ds = random_dataset(n, with_truth, seed=n)
        save_csv_dataset(ds, tmp_path / "new.csv")
        save_csv_dataset_reference(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        if n:
            back = load_csv_dataset(tmp_path / "new.csv", n_treatments=3)
            assert dataset_bytes(back) == dataset_bytes(ds)


CELL_TOKENS = (
    "1_0", "\u0661", "nan", "inf", "-inf", "1e400", "-1e400", "", " 1.5 ", "\u00a01.5",
    "0x10", "1e", "+.5", "1.5\x00", "#1", "2.0", "-0", "1e-400",
)
MUTATIONS = (
    "none", "blank line", "trailing blank line", "quoted cell", "cell token", "missing cell",
    "extra cell", "extra cell on every row", "cr line ends", "lf line ends", "header only",
    "no final line end", "quoted header",
)


def _mutate(text, mutation, data):
    lines = text.split("\r\n")[:-1]  # the writer ends every line with \r\n
    r = data.draw(st.integers(1, len(lines) - 1), label="row")
    cells = lines[r].split(",")
    c = data.draw(st.integers(0, len(cells) - 1), label="cell")
    if mutation == "blank line":
        lines.insert(r, "")
    elif mutation == "trailing blank line":
        lines.append("")
    elif mutation == "quoted cell":
        cells[c] = f'"{cells[c]}"'
    elif mutation == "cell token":
        cells[c] = data.draw(st.sampled_from(CELL_TOKENS), label="token")
    elif mutation == "missing cell":
        del cells[c]
    elif mutation == "extra cell":
        cells.append("0")
    elif mutation == "extra cell on every row":
        lines = [lines[0]] + [line + ",0" for line in lines[1:]]
    elif mutation == "header only":
        lines = lines[:1]
    elif mutation == "quoted header":
        lines[0] = ",".join(f'"{name}"' for name in lines[0].split(","))
    if mutation in ("quoted cell", "cell token", "missing cell", "extra cell"):
        lines[r] = ",".join(cells)
    end = {"cr line ends": "\r", "lf line ends": "\n"}.get(mutation, "\r\n")
    body = end.join(lines)
    return body if mutation == "no final line end" else body + end


def assert_arrays_own_memory(ds):
    """No array of ``ds`` is a view of a larger buffer or shares memory with another."""
    arrays = [a for a in (ds.y, ds.d, ds.Z, ds.truth) if a is not None]
    assert all(a.flags.owndata for a in arrays)
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def _load_outcome(path):
    try:
        ds = load_csv_dataset(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    assert_arrays_own_memory(ds)
    return dataset_bytes(ds)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 5),
    p=st.integers(1, 3),
    with_truth=st.booleans(),
    mutation=st.sampled_from(MUTATIONS),
)
def test_fast_reader_agrees_with_strict_parser(tmp_path_factory, data, n, p, with_truth, mutation):
    doubles = st.one_of(st.sampled_from(EDGE_DOUBLES), st.floats(allow_nan=False, allow_infinity=False))

    def draw(shape):
        return data.draw(arrays(np.float64, shape, elements=doubles))

    ds = Dataset(
        y=draw(n), d=np.arange(n) % 2, Z=draw((n, p)),
        truth=draw((n, 2)) if with_truth else None, n_treatments=2,
    )
    path = tmp_path_factory.getbasetemp() / "fuzzed_dataset.csv"
    save_csv_dataset(ds, path)
    text = path.read_bytes().decode()
    path.write_bytes(_mutate(text, mutation, data).encode())
    fast = _load_outcome(path)
    with mock.patch.object(dataio, "_fast_table", lambda path, n_cols: None):
        strict = _load_outcome(path)
    assert fast == strict
    if mutation in ("none", "lf line ends", "no final line end", "quoted header"):
        # Clean files must take the fast path, and read back bit for bit.
        assert dataio._fast_table(path, 2 + p + 2 * with_truth) is not None
        assert fast[:3] == dataset_bytes(ds)[:3]


class TestRunConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg_path = write(
            tmp_path, "cfg.json",
            json.dumps({"datasets": ["x.csv"], "estimators": [{"kind": "higher_order", "r": 2, "k": 2}]}),
        )
        cfg = load_run_config(cfg_path)
        assert cfg.estimators[0].R == 100
        assert cfg.propensity_floor == 0.0
        assert cfg.split == (0.56, 0.14, 0.30)
        assert cfg.truth_from == "estimation"

    def test_invalid_orders_reported(self, tmp_path):
        cfg_path = write(
            tmp_path, "cfg.json",
            json.dumps({"estimators": [{"kind": "higher_order", "r": 1, "k": 2}]}),
        )
        with pytest.raises(ConfigError, match="k must satisfy 2 <= k <= r"):
            load_run_config(cfg_path)

    def test_all_violations_reported_at_once(self, tmp_path):
        cfg_path = write(
            tmp_path, "cfg.json",
            json.dumps({
                "split": {"train": 0.5, "valid": 0.2, "test": 0.2},
                "propensity_floor": 0.7,
                "surprise": 1,
            }),
        )
        with pytest.raises(ConfigError) as err:
            load_run_config(cfg_path)
        text = str(err.value)
        assert "split" in text and "propensity_floor" in text and "surprise" in text

    def test_repeated_learner_label(self, tmp_path):
        forest = {"regressor": "forest", "propensity": "forest"}
        cfg_path = write(
            tmp_path, "cfg.json",
            json.dumps({"learners": [
                dict(forest, n_trees=2), {"regressor": "lasso", "propensity": "logistic"},
                dict(forest, n_trees=5),
            ]}),
        )
        with pytest.raises(ConfigError, match=r"learners\[0\] and learners\[2\].*forest\+forest"):
            load_run_config(cfg_path)

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(write(tmp_path, "cfg.json", "{nope"))

    def test_sweep_grids(self, tmp_path):
        cfg_path = write(
            tmp_path, "cfg.json",
            json.dumps({"sweep": {"samplesize": [500, 1000], "confounding": [0.5, 1.0]}}),
        )
        cfg = load_run_config(cfg_path)
        assert cfg.sweep_grids["samplesize"] == (500, 1000)

    def test_unknown_sweep_kind(self, tmp_path):
        cfg_path = write(tmp_path, "cfg.json", json.dumps({"sweep": {"noise": [1]}}))
        with pytest.raises(ConfigError, match="noise"):
            load_run_config(cfg_path)

    def test_every_field_has_one_rule(self):
        for section, cls in (
            ("estimators", EstimatorSpec), ("learners", LearnerSpec), ("verify", VerifySettings),
        ):
            assert set(CONFIG_RULES[section]) == {f.name for f in fields(cls)}
        # The seed comes from the top-level "seed"; coefficients are drawn, never configured.
        unset = {"master_seed", "beta", "outcome_coeffs"}
        assert set(CONFIG_RULES["simulation"]) == {f.name for f in fields(SimConfig)} - unset
        assert set(CONFIG_RULES["sweep"]) == set(SWEEP_KINDS)

    @pytest.mark.parametrize("config, value, read", [
        ({"learners": [{"regressor": "forest", "max_depth": 0}]}, 0,
         lambda c: c.learners[0].max_depth),
        ({"learners": [{"regressor": "forest", "max_depth": None}]}, None,
         lambda c: c.learners[0].max_depth),
        ({"verify": {"n_moment_sequences": 0}}, 0, lambda c: c.verify.n_moment_sequences),
        ({"simulation": {"r_c": 1}}, 1.0, lambda c: c.sim.r_c),
        ({"propensity_floor": 0}, 0.0, lambda c: c.propensity_floor),
        ({"verify": {"rk_pairs": [[4, 2]]}}, ((4, 2),), lambda c: c.verify.rk_pairs),
    ])
    def test_boundary_values_load(self, tmp_path, config, value, read):
        cfg = load_run_config(write(tmp_path, "cfg.json", json.dumps(config)))
        assert read(cfg) == value

    def test_numbers_are_strict(self, tmp_path):
        # Floats are not integers, bools are not numbers, infinities are not numbers.
        cfg_path = write(tmp_path, "cfg.json", json.dumps({
            "seed": 1.0, "simulation": {"Q": 1e3}, "propensity_floor": False,
            "verify": {"epsilon": math.inf},
        }))
        with pytest.raises(ConfigError) as err:
            load_run_config(cfg_path)
        for line in (
            "seed: must be an integer >= 0, got 1.0",
            "simulation.Q: must be an integer in [10, 2147483647], got 1000.0",
            "propensity_floor: must be a number in [0, 0.5), got false",
            "verify.epsilon: must be a number > 0, got Infinity",
        ):
            assert line in str(err.value)

    @pytest.mark.parametrize("config, message", [
        ({"verify": {"rk_pairs": [[2, 2], [2, 3]]}}, r"verify\.rk_pairs: k must satisfy 2 <= k"),
        ({"verify": {"rk_pairs": [[17, 2]]}}, r"verify\.rk_pairs: r must not exceed 16"),
        ({"simulation": {"p": 1, "r_c": 0.4}}, r"simulation: p \* r_c must round to at least one"),
        ({"verify": {"epsilon": 1e100, "order": 4}},
         r"verify\.epsilon: must be finite and > 0 with .* at verify\.order 4, got 1e\+100"),
        ({"verify": {"epsilon": 1e-200}}, r"verify\.epsilon: .* at verify\.order 2, got 1e-200"),
    ])
    def test_cross_field_rules(self, tmp_path, config, message):
        with pytest.raises(ConfigError, match=message):
            load_run_config(write(tmp_path, "cfg.json", json.dumps(config)))

    def test_missing_estimator_kind(self, tmp_path):
        cfg_path = write(tmp_path, "cfg.json", json.dumps({"estimators": [{"r": 2, "k": 2}]}))
        with pytest.raises(ConfigError, match=r"estimators\[0\]\.kind: must be"):
            load_run_config(cfg_path)

    def test_unreadable_config_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(tmp_path)
        bad = tmp_path / "cfg.json"
        bad.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(bad)


README_CONFIG = json.loads(re.findall(
    r"^```json\n(.*?)^```", (Path(__file__).parent.parent / "README.md").read_text(), re.M | re.S,
)[0])

# Values of every JSON type, to put where the README config has another.
STRINGS = st.sampled_from(["", "5", "x", "csv", "forest", "higher_order"])
OTHER_VALUES = st.one_of(
    st.booleans(), STRINGS, st.floats(), st.integers(max_value=-1), st.none(),
    st.lists(st.integers(-3, 20), max_size=3),
    st.dictionaries(STRINGS, st.integers(-3, 3), max_size=2),
)


def _paths(node, path=()):
    """The path to every value of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# Python types a loaded value may have, by the annotation of its field.
ANNOTATED = {"int": int, "int | None": (int, type(None)), "float": (int, float), "bool": bool,
             "str": str, "tuple": tuple}


def _assert_well_typed(spec) -> None:
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type in ANNOTATED:
            assert isinstance(value, ANNOTATED[f.type]), (f.name, value)
            assert f.type == "bool" or not isinstance(value, bool), (f.name, value)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_readme_config_loads_or_raises_config_error(tmp_path_factory, data):
    cfg = copy.deepcopy(README_CONFIG)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(cfg))
        action = data.draw(st.sampled_from(["drop", "add", "replace"]), label="action")
        if action == "add":
            path = data.draw(st.sampled_from([p for p in paths if isinstance(_at(cfg, p), dict)]))
            _at(cfg, path)["unknown_key"] = data.draw(OTHER_VALUES)
            continue
        path = data.draw(st.sampled_from(paths[1:]), label="path")
        if action == "drop":
            del _at(cfg, path[:-1])[path[-1]]
        else:
            _at(cfg, path[:-1])[path[-1]] = data.draw(OTHER_VALUES, label="value")
    path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
    path.write_text(json.dumps(cfg))
    try:
        loaded = load_run_config(path)
    except ConfigError:
        return
    # A config that loads holds values of the annotated types only.
    assert isinstance(loaded, RunConfig)
    for spec in (loaded, loaded.sim, loaded.verify, *loaded.estimators, *loaded.learners):
        _assert_well_typed(spec)


REPORT_CELLS = st.one_of(
    st.floats(allow_subnormal=True), st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308]),
    st.integers(-(2**64), 2**64), st.booleans(), st.none(),
)


def _same_cell(got, want) -> bool:
    """Equal value and type; a float also keeps its sign bit, and nan equals nan."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return (math.isnan(got) and math.isnan(want)) or (
            got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        )
    return got == want


class TestReports:
    @pytest.fixture
    def payload(self):
        return {
            "schema_version": 1,
            "kind": "demo",
            "columns": ["name", "value", "flag"],
            "rows": [
                {"name": "a", "value": 0.1 + 0.2, "flag": True},
                {"name": "b", "value": float("inf"), "flag": False},
            ],
        }

    def test_infinity_conventions(self, tmp_path, payload):
        jpath = tmp_path / "r.json"
        write_report(payload, jpath, "json")
        loaded = json.loads(jpath.read_text())
        assert loaded["rows"][1]["value"] == "inf"
        cpath = tmp_path / "r.csv"
        write_report(payload, cpath, "csv")
        assert ",inf," in cpath.read_text()

    def test_csv_round_trip_exact(self, tmp_path, payload):
        cpath = tmp_path / "r.csv"
        write_report(payload, cpath, "csv")
        rows = read_report_csv(cpath)["rows"]
        assert rows[0]["value"] == 0.1 + 0.2
        assert rows[0]["flag"] is True
        assert rows[1]["value"] == math.inf

    def test_tiny_floats_survive(self, tmp_path):
        payload = {
            "schema_version": 1, "kind": "x", "columns": ["v"],
            "rows": [{"v": 1e-15}, {"v": -2.5e-308}],
        }
        cpath = tmp_path / "t.csv"
        write_report(payload, cpath, "csv")
        rows = read_report_csv(cpath)["rows"]
        assert rows[0]["v"] == 1e-15
        assert rows[1]["v"] == -2.5e-308

    def test_empty_report_is_header_only(self, tmp_path):
        payload = {"schema_version": 1, "kind": "x", "columns": ["a", "b"], "rows": []}
        cpath = tmp_path / "e.csv"
        write_report(payload, cpath, "csv")
        assert cpath.read_text() == "a,b\n"

    def test_nan_convention(self, tmp_path):
        payload = {
            "schema_version": 1, "kind": "x", "columns": ["v"],
            "rows": [{"v": float("nan")}],
        }
        jpath = tmp_path / "n.json"
        write_report(payload, jpath, "json")
        assert json.loads(jpath.read_text())["rows"][0]["v"] == "nan"
        cpath = tmp_path / "n.csv"
        write_report(payload, cpath, "csv")
        assert math.isnan(read_report_csv(cpath)["rows"][0]["v"])

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.fixed_dictionaries({"a": REPORT_CELLS, "b": REPORT_CELLS}), max_size=4))
    def test_round_trip_of_every_cell_kind(self, tmp_path_factory, rows):
        payload = {"schema_version": 1, "kind": "x", "columns": ["a", "b"], "rows": rows}
        base = tmp_path_factory.getbasetemp()
        write_report(payload, base / "cells.csv", "csv")
        write_report(payload, base / "cells.json", "json")
        back = read_report_csv(base / "cells.csv")["rows"]
        stored = json.loads((base / "cells.json").read_text())["rows"]
        assert len(back) == len(stored) == len(rows)
        for row, got, kept in zip(rows, back, stored):
            for c in ("a", "b"):
                assert _same_cell(got[c], row[c]), (row[c], got[c])
                v = row[c]
                if isinstance(v, float) and not math.isfinite(v):
                    assert kept[c] == ("nan" if math.isnan(v) else "inf" if v > 0 else "-inf")
                else:
                    assert _same_cell(kept[c], v), (v, kept[c])

    def test_deterministic_bytes(self, tmp_path, payload):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(payload, a, "csv")
        write_report(payload, b, "csv")
        assert a.read_bytes() == b.read_bytes()
