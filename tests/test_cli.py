import json
import math

import numpy as np
import pytest

from orthoate import Dataset, load_csv_dataset, make_split, read_report_csv, save_csv_dataset
from orthoate import cli
from orthoate.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def base_config(**overrides) -> dict:
    cfg = {
        "schema_version": 1,
        "seed": 11,
        "estimators": [
            {"kind": "dr"},
            {"kind": "dml"},
            {"kind": "higher_order", "r": 2, "k": 2, "R": 10},
        ],
        "learners": [{"regressor": "lasso", "propensity": "logistic"}],
        "output": {"dir": "out", "format": "csv"},
        "simulation": {"Q": 300, "p": 2, "r_c": 1.0, "M": 2, "n_treatments": 3},
        "sweep": {"samplesize": [250, 300]},
        "verify": {"rk_pairs": [[2, 2]], "n_draws": 20000, "n_moment_sequences": 10},
    }
    cfg.update(overrides)
    return cfg


def zero_propensity_csv(path) -> None:
    """40 units: treated live at z > 0, controls at z < 0, except one
    treated unit at z = -0.5.  A forest propensity model learns an exact
    zero for arm 1 in the control region, and seed 11... (see config
    seed 2 in the test) puts the anomalous unit in the estimation fold.
    """
    lines = ["y,d,z1,mu0,mu1"]
    for i in range(30):
        z = 0.1 + 0.9 * i / 29
        lines.append(f"{repr(2.0 + z + 1.0)},1,{repr(z)},1.0,2.0")
    for i in range(9):
        z = -1.0 + 0.9 * i / 8
        lines.append(f"{repr(2.0 + z)},0,{repr(z)},1.0,2.0")
    lines.append(f"{repr(2.5)},1,{repr(-0.5)},1.0,2.0")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSimulate:
    def test_writes_m_datasets(self, workspace):
        cfg = write_json(workspace / "cfg.json", base_config())
        assert main(["simulate", "--config", cfg, "--out", "data"]) == 0
        files = sorted((workspace / "data").glob("dataset_*.csv"))
        assert len(files) == 2

    def test_deterministic_bytes(self, workspace):
        cfg = write_json(workspace / "cfg.json", base_config())
        main(["simulate", "--config", cfg, "--out", "a"])
        main(["simulate", "--config", cfg, "--out", "b"])
        fa = (workspace / "a" / "dataset_000.csv").read_bytes()
        fb = (workspace / "b" / "dataset_000.csv").read_bytes()
        assert fa == fb


class TestEstimate:
    @pytest.fixture
    def sim_dataset(self, workspace):
        cfg = write_json(workspace / "sim.json", base_config())
        main(["simulate", "--config", cfg, "--out", "data"])
        return "data/dataset_000.csv"

    def test_three_estimator_rows(self, workspace, sim_dataset, capsys):
        cfg = write_json(workspace / "cfg.json", base_config(datasets=[sim_dataset]))
        assert main(["estimate", "--config", cfg]) == 0
        report = read_report_csv(workspace / "out" / "dataset_000_estimates.csv")
        assert [r["estimator"] for r in report["rows"]] == ["dr", "dml", "ho(2,2)"]
        summary = read_report_csv(workspace / "out" / "summary.csv")
        ho_row = next(r for r in summary["rows"] if r["estimator"] == "ho(2,2)")
        assert isinstance(ho_row["R_dr"], float)
        assert "eps_ate" in capsys.readouterr().out

    def test_missing_dataset_partial_failure(self, workspace, sim_dataset, capsys):
        cfg = write_json(
            workspace / "cfg.json", base_config(datasets=[sim_dataset, "absent.csv"])
        )
        assert main(["estimate", "--config", cfg]) == 2
        # Partial results are preserved and the failure names the file.
        assert (workspace / "out" / "dataset_000_estimates.csv").exists()
        assert "absent.csv" in capsys.readouterr().err

    def test_empty_dataset_list_is_config_error(self, workspace):
        cfg = write_json(workspace / "cfg.json", base_config())
        assert main(["estimate", "--config", cfg]) == 1

    def test_byte_identical_reruns(self, workspace, sim_dataset):
        cfg_a = write_json(
            workspace / "a.json",
            base_config(datasets=[sim_dataset], output={"dir": "out_a", "format": "csv"}),
        )
        cfg_b = write_json(
            workspace / "b.json",
            base_config(datasets=[sim_dataset], output={"dir": "out_b", "format": "csv"}),
        )
        main(["estimate", "--config", cfg_a])
        main(["estimate", "--config", cfg_b])
        for name in ("dataset_000_estimates.csv", "summary.csv"):
            assert (workspace / "out_a" / name).read_bytes() == (
                workspace / "out_b" / name
            ).read_bytes()

    def test_json_format(self, workspace, sim_dataset):
        cfg = write_json(workspace / "cfg.json", base_config(datasets=[sim_dataset]))
        assert main(["estimate", "--config", cfg, "--format", "json"]) == 0
        payload = json.loads((workspace / "out" / "dataset_000_estimates.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 3


class TestZeroPropensity:
    @pytest.fixture
    def zp_config(self, workspace):
        zero_propensity_csv(workspace / "zp.csv")
        return base_config(
            seed=2,
            datasets=["zp.csv"],
            estimators=[
                {"kind": "dr"},
                {"kind": "dml"},
                {"kind": "higher_order", "r": 2, "k": 2, "R": 5},
            ],
            learners=[{
                "regressor": "lasso", "propensity": "forest",
                "n_trees": 20, "max_depth": 8, "min_leaf": 1,
            }],
        )

    def test_dml_infinite_and_backslash_placeholder(self, workspace, zp_config):
        cfg = write_json(workspace / "cfg.json", zp_config)
        assert main(["estimate", "--config", cfg]) == 0
        report = read_report_csv(workspace / "out" / "zp_estimates.csv")
        dml_row = next(r for r in report["rows"] if r["estimator"] == "dml")
        assert math.isinf(dml_row["rel_error"])
        assert dml_row["infinite"] is True
        raw = (workspace / "out" / "zp_estimates.csv").read_text()
        assert ",inf," in raw or ",-inf," in raw
        summary = read_report_csv(workspace / "out" / "summary.csv")
        ho_row = next(r for r in summary["rows"] if r["estimator"] == "ho(2,2)")
        assert ho_row["R_dml"] == "\\"
        assert np.isfinite(ho_row["eps_ate"])

    def test_filter_infinite_recomputes_aggregate(self, workspace, zp_config):
        main(["simulate", "--config", write_json(workspace / "sim.json", base_config()), "--out", "data"])
        zp_config["datasets"] = ["zp.csv", "data/dataset_000.csv"]
        cfg = write_json(workspace / "cfg.json", zp_config)
        assert main(["estimate", "--config", cfg, "--filter-infinite"]) == 0
        summary = read_report_csv(workspace / "out" / "summary.csv")
        dml_row = next(r for r in summary["rows"] if r["estimator"] == "dml")
        assert dml_row["n_excluded"] == 1
        assert dml_row["n_datasets"] == 1
        assert np.isfinite(dml_row["eps_ate"])
        ho_row = next(r for r in summary["rows"] if r["estimator"] == "ho(2,2)")
        assert isinstance(ho_row["R_dml"], float)


class TestFailedDataset:
    def test_failed_dataset_stays_out_of_summary(self, workspace, capsys):
        # Arm 2 keeps six rows, all in the training fold, so the
        # higher-order estimator finds no factual residuals for it on
        # the estimation fold and the whole dataset fails.
        main(["simulate", "--config", write_json(workspace / "sim.json", base_config()), "--out", "data"])
        ds = load_csv_dataset(workspace / "data" / "dataset_000.csv")
        # The split the CLI draws for the first dataset.
        seed = int(np.random.SeedSequence(11, spawn_key=(0, 0)).generate_state(1)[0])
        training = make_split(ds.n, (0.56, 0.14, 0.30), seed=seed).training_idx
        d = np.where(ds.d == 2, 0, ds.d)
        d[training[:6]] = 2
        save_csv_dataset(
            Dataset(y=ds.y, d=d, Z=ds.Z, truth=ds.truth, n_treatments=3), workspace / "bad.csv"
        )
        cfg = write_json(workspace / "cfg.json", base_config(datasets=["bad.csv", "data/dataset_001.csv"]))
        assert main(["estimate", "--config", cfg]) == 2
        assert "bad.csv" in capsys.readouterr().err
        assert not (workspace / "out" / "bad_estimates.csv").exists()
        summary = read_report_csv(workspace / "out" / "summary.csv")
        assert [r["n_datasets"] for r in summary["rows"]] == [1, 1, 1]


    def test_huge_treatment_label_fails_the_dataset(self, workspace, capsys):
        # One label of 3,000,000 makes a 3,000,001-arm dataset whose
        # arms are almost all missing.
        rng = np.random.default_rng(0)
        lines = ["y,d,z1"] + [f"{rng.normal()!r},{i % 3},{rng.normal()!r}" for i in range(40)]
        (workspace / "big.csv").write_text("\n".join(lines + ["0.5,3000000,0.1"]) + "\n")
        cfg = write_json(workspace / "cfg.json", base_config(datasets=["big.csv"]))
        assert main(["estimate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error: big.csv: treatment arm(s) [3, 4, 5," in err
        assert "(2999997 of 3000001 arms)" in err


class TestOverflow:
    def test_forest_overflow_fails_the_dataset(self, workspace, capsys):
        main(["simulate", "--config", write_json(workspace / "sim.json", base_config()), "--out", "data"])
        ds = load_csv_dataset(workspace / "data" / "dataset_000.csv")
        huge = Dataset(y=1e200 * ds.y, d=ds.d, Z=ds.Z, truth=ds.truth, n_treatments=3)
        save_csv_dataset(huge, workspace / "huge.csv")
        cfg = write_json(workspace / "cfg.json", base_config(
            datasets=["huge.csv"],
            learners=[{"regressor": "forest", "propensity": "forest", "n_trees": 3}],
        ))
        assert main(["estimate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error: huge.csv:" in err and "overflow" in err
        assert not (workspace / "out" / "huge_estimates.csv").exists()

    def test_lasso_overflow_fails_the_dataset(self, workspace, capsys):
        sim_cfg = write_json(workspace / "sim.json", base_config())
        main(["simulate", "--config", sim_cfg, "--out", "data"])
        ds = load_csv_dataset(workspace / "data" / "dataset_000.csv")
        huge = Dataset(y=1e200 * ds.y, d=ds.d, Z=ds.Z, truth=ds.truth, n_treatments=3)
        save_csv_dataset(huge, workspace / "huge.csv")
        cfg = write_json(workspace / "cfg.json", base_config(datasets=["huge.csv"]))
        assert main(["estimate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error: huge.csv:" in err and "overflow" in err
        assert not (workspace / "out" / "huge_estimates.csv").exists()


class TestSweep:
    def test_outputs_and_shape(self, workspace):
        cfg = write_json(workspace / "cfg.json", base_config(
            estimators=[{"kind": "dr"}, {"kind": "higher_order", "r": 2, "k": 2, "R": 5}],
        ))
        assert main(["sweep", "--config", cfg, "--sweep", "samplesize"]) == 0
        rows = read_report_csv(workspace / "out" / "sweep_samplesize.csv")["rows"]
        # 2 grid points x 2 replications x 1 learner x 2 estimators.
        assert len(rows) == 8
        summary = json.loads((workspace / "out" / "sweep_samplesize_summary.json").read_text())
        assert "generated_at" in summary
        assert len(summary["rows"]) == 4

    def test_unknown_sweep_kind(self, workspace, capsys):
        cfg = write_json(workspace / "cfg.json", base_config())
        assert main(["sweep", "--config", cfg, "--sweep", "noise"]) == 1
        assert "noise" in capsys.readouterr().err

    def test_grid_missing_from_config(self, workspace):
        cfg = write_json(workspace / "cfg.json", base_config(sweep={"dimension": [2]}))
        assert main(["sweep", "--config", cfg, "--sweep", "samplesize"]) == 1

    def test_deterministic_modulo_timestamp(self, workspace):
        cfg_a = write_json(workspace / "a.json", base_config(
            estimators=[{"kind": "dr"}], output={"dir": "oa", "format": "csv"},
        ))
        cfg_b = write_json(workspace / "b.json", base_config(
            estimators=[{"kind": "dr"}], output={"dir": "ob", "format": "csv"},
        ))
        main(["sweep", "--config", cfg_a, "--sweep", "samplesize"])
        main(["sweep", "--config", cfg_b, "--sweep", "samplesize"])
        assert (workspace / "oa" / "sweep_samplesize.csv").read_bytes() == (
            workspace / "ob" / "sweep_samplesize.csv"
        ).read_bytes()
        sa = json.loads((workspace / "oa" / "sweep_samplesize_summary.json").read_text())
        sb = json.loads((workspace / "ob" / "sweep_samplesize_summary.json").read_text())
        sa.pop("generated_at"), sb.pop("generated_at")
        assert sa == sb

    def test_truth_from_sets_the_target(self, workspace):
        tables = []
        for truth_from in ("estimation", "full"):
            cfg = write_json(workspace / f"{truth_from}.json", base_config(
                truth_from=truth_from, output={"dir": truth_from, "format": "csv"},
            ))
            assert main(["sweep", "--config", cfg, "--sweep", "samplesize"]) == 0
            tables.append((workspace / truth_from / "sweep_samplesize.csv").read_bytes())
        assert tables[0] != tables[1]


class TestVerify:
    def test_passes_with_dml_gated_first_order(self, workspace, capsys):
        cfg = write_json(workspace / "cfg.json", base_config())
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # The DML order-2 violation is printed but does not gate.
        assert "VIOLATION" in out

    def test_dml_gated_second_order_fails(self, workspace):
        cfg = write_json(workspace / "cfg.json", base_config(
            verify={"rk_pairs": [[2, 2]], "n_draws": 20000, "dml_max_order": 2},
        ))
        assert main(["verify", "--config", cfg]) == 3

    def test_empty_rk_pairs_is_config_error(self, workspace):
        cfg = write_json(workspace / "cfg.json", base_config(verify={"rk_pairs": []}))
        assert main(["verify", "--config", cfg]) == 1


class TestExitCodes:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_usage_error_maps_to_one(self):
        assert main([]) == 1
        assert main(["estimate"]) == 1

    def test_missing_config_file(self, workspace, capsys):
        assert main(["estimate", "--config", "nope.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_seed_override(self, workspace):
        cfg = write_json(workspace / "cfg.json", base_config(datasets=["x.csv"]))
        assert main(["estimate", "--config", cfg, "--seed", "-3"]) == 1

    def test_bad_floor_override(self, workspace):
        cfg = write_json(workspace / "cfg.json", base_config(datasets=["x.csv"]))
        assert main(["estimate", "--config", cfg, "--propensity-floor", "0.7"]) == 1

    def test_out_of_memory_is_runtime_error(self, workspace, capsys, monkeypatch):
        def too_big(cfg, replication=0):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(cli, "generate_dataset", too_big)
        cfg = write_json(workspace / "cfg.json", base_config())
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 14.6 TiB for an array\n"

    # Only values that start no worker process: a large one would start that many.
    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_worker_count_is_config_error(self, workspace, capsys, monkeypatch, value):
        monkeypatch.setenv("ORTHOATE_WORKERS", value)
        cfg = write_json(workspace / "cfg.json", base_config())
        assert main(["sweep", "--config", cfg, "--sweep", "samplesize"]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: ORTHOATE_WORKERS: must be an integer >= 1, got '{value}'\n"


# (path into base_config, bad value, the name its error line gives it).
BAD_VALUES = [
    (("learners", 0, "n_trees"), 0, "learners[0].n_trees"),
    (("learners", 0, "n_trees"), "5", "learners[0].n_trees"),
    (("learners", 0, "lasso_grid"), [], "learners[0].lasso_grid"),
    (("learners", 0, "lasso_grid"), [-1], "learners[0].lasso_grid"),
    (("learners", 0, "logistic_l2"), -1, "learners[0].logistic_l2"),
    (("learners", 0, "min_leaf"), 2.5, "learners[0].min_leaf"),
    (("estimators", 2, "r"), 2.5, "estimators[2].r"),
    (("estimators", 2, "R"), 2.7, "estimators[2].R"),
    (("seed",), True, "seed"),
    (("simulation", "Q"), 100.5, "simulation.Q"),
    (("simulation", "Q"), "100", "simulation.Q"),
    (("simulation", "n_treatments"), 1, "simulation.n_treatments"),
    (("sweep", "samplesize"), ["abc"], "sweep.samplesize"),
    (("verify", "tolerance"), "x", "verify.tolerance"),
    (("verify", "dml_max_order"), "a", "verify.dml_max_order"),
    (("verify", "include_dml"), "no", "verify.include_dml"),
    # Sizes past int32 would end in a numpy traceback.
    (("simulation", "Q"), 10**20, "simulation.Q"),
    (("simulation", "p"), 10**20, "simulation.p"),
    (("learners", 0, "n_trees"), 10**20, "learners[0].n_trees"),
    (("sweep", "samplesize"), [250, 10**20], "sweep.samplesize"),
]


@pytest.mark.parametrize(
    "path, value, name", BAD_VALUES, ids=[f"{n}={v!r}" for _, v, n in BAD_VALUES]
)
def test_bad_config_value_is_named_config_error(workspace, capsys, path, value, name):
    cfg = base_config()
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    path_arg = write_json(workspace / "cfg.json", cfg)
    assert main(["simulate", "--config", path_arg, "--out", "data"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert f"\n  {name}: must be " in err
    assert not (workspace / "data").exists()


def test_size_bound_is_stated(workspace, capsys):
    cfg = base_config()
    cfg["simulation"]["Q"] = 10**20
    assert main(["simulate", "--config", write_json(workspace / "cfg.json", cfg)]) == 1
    assert ("\n  simulation.Q: must be an integer in [10, 2147483647], "
            "got 100000000000000000000\n") in capsys.readouterr().err
