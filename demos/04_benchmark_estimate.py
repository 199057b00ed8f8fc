"""End-to-end benchmark run through the command-line entry point.

Generates a small collection of synthetic datasets with known
counterfactual means, saves them in the canonical CSV schema, and then
drives the ``estimate`` subcommand exactly as a shell invocation would:
a JSON config names the datasets, estimators, and learners, and the run
leaves behind a raw per-dataset report plus an aggregate summary.

Run from the repository root (takes a few seconds):

    python3 demos/04_benchmark_estimate.py
"""

import json
import tempfile
from pathlib import Path

from orthoate import SimConfig, generate_dataset, read_report_csv, save_csv_dataset
from orthoate.cli import main

cfg_sim = SimConfig(Q=2000, p=2, r_c=1.0, n_treatments=3, M=3, master_seed=21)

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    # ---- materialize the benchmark -----------------------------------
    # Datasets carry mu0..mu2 columns with the true per-unit means, so
    # downstream reports can score estimates against fold-exact targets.
    paths = []
    for rep in range(cfg_sim.M):
        ds = generate_dataset(cfg_sim, replication=rep)
        path = tmp / f"bench_{rep:03d}.csv"
        save_csv_dataset(ds, path)
        paths.append(str(path))
    header = Path(paths[0]).read_text().splitlines()[0]
    print(f"wrote {len(paths)} datasets of {cfg_sim.Q} rows, columns: {header}")

    # ---- configure and run the CLI ------------------------------------
    config = {
        "schema_version": 1,
        "seed": 5,
        "datasets": paths,
        "estimators": [
            {"kind": "dr"},
            {"kind": "dml"},
            {"kind": "higher_order", "r": 2, "k": 2, "R": 100},
        ],
        "learners": [{"regressor": "lasso", "propensity": "logistic"}],
        "output": {"dir": str(tmp / "out"), "format": "csv"},
    }
    cfg_path = tmp / "run.json"
    cfg_path.write_text(json.dumps(config, indent=1))

    code = main(["estimate", "--config", str(cfg_path)])
    print(f"\nexit code {code}")

    # ---- inspect the outputs ------------------------------------------
    out = tmp / "out"
    print(f"\nfiles: {sorted(p.name for p in out.iterdir())}\n")

    rows = read_report_csv(out / "bench_000_estimates.csv")["rows"]
    print("per-dataset report for bench_000, one row per (learner, estimator):")
    cols = ("estimator", "theta_0", "theta_1", "theta_2", "rel_error")
    print("  " + "  ".join(f"{c:>9}" for c in cols))
    for row in rows:
        cells = [str(row["estimator"])]
        cells += [f"{float(row[c]):.4f}" for c in cols[1:]]
        print("  " + "  ".join(f"{c:>9}" for c in cells))

    summary = read_report_csv(out / "summary.csv")["rows"]

    def fmt_r(v):
        # empty cells read back as None; "\" survives as a string
        return f"{v:+.3f}" if isinstance(v, float) else ("" if v is None else str(v))

    print("\nsummary over all datasets (eps_ate is the mean relative error):")
    for row in summary:
        print(
            f"  {row['estimator']:<9} eps_ate={float(row['eps_ate']):.4f}"
            f"  R_dr={fmt_r(row['R_dr']):<7} R_dml={fmt_r(row['R_dml'])}"
        )
    print("\nR_dr and R_dml are the fractional error reductions of the")
    print("higher-order row against each baseline (blank on baseline rows;")
    print("a backslash would mark a reduction against an infinite baseline).")
