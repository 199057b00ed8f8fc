import copy
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoate import (
    ConfigError,
    Dataset,
    EstimatorSpec,
    LearnerSpec,
    ParseError,
    RunConfig,
    SchemaError,
    SimSettings,
    VerifySettings,
    load_csv_dataset,
    load_run_config,
    read_report_csv,
    save_csv_dataset,
    write_report,
)
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
            ("estimators", EstimatorSpec), ("learners", LearnerSpec),
            ("simulation", SimSettings), ("verify", VerifySettings),
        ):
            assert set(CONFIG_RULES[section]) == {f.name for f in fields(cls)}
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
            "simulation.Q: must be an integer >= 10, got 1000.0",
            "propensity_floor: must be a number in [0, 0.5), got false",
            "verify.epsilon: must be a number > 0, got Infinity",
        ):
            assert line in str(err.value)

    @pytest.mark.parametrize("config, message", [
        ({"verify": {"rk_pairs": [[2, 2], [2, 3]]}}, r"verify\.rk_pairs: k must satisfy 2 <= k"),
        ({"verify": {"rk_pairs": [[17, 2]]}}, r"verify\.rk_pairs: r must not exceed 16"),
        ({"simulation": {"p": 1, "r_c": 0.4}}, r"simulation: p \* r_c must round to at least one"),
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

    def test_deterministic_bytes(self, tmp_path, payload):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(payload, a, "csv")
        write_report(payload, b, "csv")
        assert a.read_bytes() == b.read_bytes()
