"""Command-line front end.

Subcommands
-----------
simulate   generate synthetic benchmark datasets as CSV files
estimate   run every (learner, estimator) combo on each configured dataset
sweep      run a simulation sweep grid (confounding | dimension | samplesize)
verify     cross-check coefficient construction and score orthogonality

Exit codes: 0 success, 1 configuration error, 2 partial or full runtime
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .dataio import RunConfig, config_problem, load_csv_dataset, load_run_config
from .dataio import save_csv_dataset, write_report
from .exceptions import ConfigError, OrthoError
from .gateaux import check_on_draw, draw_at_truth
from .score import (
    Moments,
    compute_coefficients,
    random_realizable_moments,
    solve_coefficients_oracle,
)
from .seeds import stream
from .simulation import SimConfig, SweepRow, error_summary, evaluate_dataset, generate_dataset
from .simulation import SWEEP_KINDS, SWEEP_SUMMARY_COLUMNS, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoate", description="Higher-order orthogonal scores for treatment effects"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "generate synthetic datasets"),
        ("estimate", "estimate treatment effects on datasets"),
        ("sweep", "run a simulation sweep"),
        ("verify", "verify coefficients and orthogonality"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "estimate":
            p.add_argument("--format", choices=("csv", "json"), default=None)
            p.add_argument("--filter-infinite", action="store_true", default=None)
            p.add_argument("--propensity-floor", type=float, default=None)
        if name == "sweep":
            # Worker count comes from ORTHOATE_WORKERS only, per the
            # reproducibility contract: flags never change numeric output.
            p.add_argument("--sweep", required=True, help="|".join(SWEEP_KINDS))
            p.add_argument("--filter-infinite", action="store_true", default=None)
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    changes = {}
    # Flags that stand for config keys obey the same rules as the keys.
    for key in ("seed", "propensity_floor"):
        value = getattr(args, key, None)
        if value is not None:
            problem = config_problem("config", key, value, "--" + key.replace("_", "-"))
            if problem:
                raise ConfigError(problem)
            changes[key] = value
    if args.out is not None:
        changes["output_dir"] = args.out
    if getattr(args, "format", None) is not None:
        changes["output_format"] = args.format
    if getattr(args, "filter_infinite", None):
        changes["filter_infinite"] = True
    return replace(cfg, **changes) if changes else cfg


def _sim_config(cfg: RunConfig) -> SimConfig:
    """The run's simulation section, seeded by the run seed."""
    return replace(cfg.sim, master_seed=cfg.seed)


def cmd_simulate(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = _sim_config(cfg)
    for m in range(base.M):
        ds = generate_dataset(base, m)
        path = out / f"dataset_{m:03d}.csv"
        save_csv_dataset(ds, path)
        print(f"wrote {path}")
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    if not cfg.datasets:
        raise ConfigError("estimate needs a non-empty 'datasets' list in the config")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = []
    # (learner, estimator, dataset index, rel_error) of datasets whose report was written.
    errors = []
    for di, path in enumerate(cfg.datasets):
        try:
            ds = load_csv_dataset(path, cfg.n_treatments)
            rows, dataset_errors = [], []
            # Split, fit and estimator seeds: spawn keys (di, 0), (di, 1), (di, 2).
            for lspec, espec, report, err in evaluate_dataset(
                ds, cfg.split, cfg.seed, di, (0, 1, 2), cfg.learners, cfg.estimators,
                cfg.propensity_floor, moments_from=cfg.moments_from, truth_from=cfg.truth_from,
            ):
                row = {"learner": lspec.label, "estimator": espec.label}
                for i, v in enumerate(report.theta):
                    row[f"theta_{i}"] = v
                for i in range(ds.n_treatments):
                    for k in range(ds.n_treatments):
                        if i != k:
                            row[f"ate_{i}_{k}"] = report.ate_pairwise[i, k]
                if err is not None:
                    dataset_errors.append((lspec.label, espec.label, di, err))
                row["rel_error"] = err
                row["n_floored"] = report.diagnostics.n_floored
                row["infinite"] = report.diagnostics.infinite
                row["nan"] = report.diagnostics.nan
                rows.append(row)
            payload = {
                "schema_version": 1,
                "kind": "estimate",
                "dataset": str(path),
                "seed": cfg.seed,
                "columns": list(rows[0].keys()),
                "rows": rows,
            }
            dest = out / f"{Path(path).stem}_estimates.{cfg.output_format}"
            write_report(payload, dest, cfg.output_format)
            print(f"wrote {dest}")
            errors.extend(dataset_errors)
        except (OrthoError, OSError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            failures.append(str(path))
    if errors:
        summary = _estimate_summary(cfg, errors)
        dest = out / f"summary.{cfg.output_format}"
        write_report(summary, dest, cfg.output_format)
        print(f"wrote {dest}")
        _print_summary(summary)
    if failures:
        print(f"failed on {len(failures)} dataset(s): {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def _estimate_summary(cfg: RunConfig, errors: list) -> dict:
    # eps_ate per combo; optionally excluding datasets whose DML was infinite.
    summary = error_summary(errors, cfg.filter_infinite)
    rows = []
    for lspec in cfg.learners:
        for espec in cfg.estimators:
            key = (lspec.label, espec.label)
            if key not in summary:
                continue
            n_kept, n_excl, value, _ = summary[key]
            row = {
                "learner": lspec.label,
                "estimator": espec.label,
                "eps_ate": value,
                "n_datasets": n_kept,
                "n_excluded": n_excl,
                "R_dr": "",
                "R_dml": "",
            }
            if espec.kind == "higher_order":
                for base, col in (("dr", "R_dr"), ("dml", "R_dml")):
                    base_eps = summary.get((lspec.label, base), (0, 0, np.nan))[2]
                    # The paper-style tables mark a reduction against an
                    # infinite baseline with a backslash placeholder; a
                    # missing or NaN baseline (nothing kept) leaves it blank.
                    if np.isinf(base_eps):
                        row[col] = "\\"
                    elif base_eps > 0 and np.isfinite(value):
                        row[col] = (base_eps - value) / base_eps
            rows.append(row)
    return {
        "schema_version": 1,
        "kind": "estimate_summary",
        "seed": cfg.seed,
        "filter_infinite": cfg.filter_infinite,
        "columns": ["learner", "estimator", "eps_ate", "n_datasets", "n_excluded", "R_dr", "R_dml"],
        "rows": rows,
    }


def _console_number(x: float) -> str:
    """Four decimals, or four significant digits once the magnitude reaches 1e6."""
    return f"{x:.4f}" if abs(x) < 1e6 else f"{x:.4e}"


def _print_summary(summary: dict) -> None:
    print(f"{'learner':<18} {'estimator':<10} {'eps_ate':>12} {'R_dr':>8} {'R_dml':>8}")
    for row in summary["rows"]:
        eps_s = _console_number(row["eps_ate"])
        r_dr = f"{row['R_dr']:.3f}" if isinstance(row["R_dr"], float) else str(row["R_dr"])
        r_dml = f"{row['R_dml']:.3f}" if isinstance(row["R_dml"], float) else str(row["R_dml"])
        print(f"{row['learner']:<18} {row['estimator']:<10} {eps_s:>12} {r_dr:>8} {r_dml:>8}")


def cmd_sweep(cfg: RunConfig, args) -> int:
    kind = args.sweep
    if cfg.sweep_grids is None or kind not in cfg.sweep_grids:
        raise ConfigError(
            f"sweep kind '{kind}' has no grid in the config"
            if kind in SWEEP_KINDS
            else f"unknown sweep kind '{kind}'"
        )
    report = run_sweep(
        _sim_config(cfg), kind, cfg.sweep_grids[kind], cfg.estimators, cfg.learners,
        split_ratios=cfg.split, propensity_floor=cfg.propensity_floor,
        moments_from=cfg.moments_from, truth_from=cfg.truth_from,
    )
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / f"sweep_{kind}.csv"
    table = {"columns": [f.name for f in fields(SweepRow)], "rows": [asdict(r) for r in report.rows]}
    write_report(table, rows_path, "csv")
    summary = {
        "schema_version": 1,
        "kind": f"sweep_{kind}",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "master_seed": cfg.seed,
        "filter_infinite": cfg.filter_infinite,
        "columns": list(SWEEP_SUMMARY_COLUMNS),
        "rows": report.aggregate(filter_infinite=cfg.filter_infinite),
    }
    summary_path = out / f"sweep_{kind}_summary.json"
    write_report(summary, summary_path, "json")
    print(f"wrote {rows_path}")
    print(f"wrote {summary_path}")
    for row in summary["rows"]:
        print(
            f"{kind}={row['grid_value']:<8} {row['learner']:<18} {row['estimator']:<10} "
            f"eps_ate={_console_number(row['eps_ate'])} median={_console_number(row['median'])}"
        )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    ver = cfg.verify
    if not ver.rk_pairs:
        raise ConfigError("verify.rk_pairs must list at least one (r, k) pair")
    model = _sim_config(cfg).model()
    failed = False

    print("coefficient construction: recursion vs linear-system oracle")
    rng = stream(cfg.seed, 99)
    for r, k in ver.rk_pairs:
        worst = 0.0
        seqs = [Moments.from_bernoulli(ver.pi, r)] + [
            random_realizable_moments(rng, r) for _ in range(ver.n_moment_sequences)
        ]
        for mom in seqs:
            got = compute_coefficients(r, k, mom)
            want = solve_coefficients_oracle(r, k, mom)
            num = np.abs(np.append(got.b, got.bar_b_r) - np.append(want.b, want.bar_b_r))
            den = np.maximum(np.abs(np.append(want.b, want.bar_b_r)), 1.0)
            worst = max(worst, float((num / den).max()))
        ok = worst < ver.tolerance
        failed = failed or not ok
        print(f"  (r={r}, k={k}): max rel diff {worst:.3e} {'PASS' if ok else 'FAIL'}")

    print("orthogonality: Gateaux derivatives at the true nuisances")
    draw = draw_at_truth(model, ver.n_draws, cfg.seed, 0, ver.order, ver.epsilon)
    scores = [(r, k) for r, k in ver.rk_pairs] + ([None] if ver.include_dml else [])
    for entry in scores:
        if entry is None:
            rep, gate = check_on_draw(None, None, draw), ver.dml_max_order
        else:
            r, k = entry
            moments = model.residual_moments(0, r)
            coeffs = compute_coefficients(r, k, moments)
            rep, gate = check_on_draw(coeffs, moments, draw), min(ver.order, k)
        for line in rep.summary_lines():
            print(line)
        # Gate on the constant direction pair up to each score's declared
        # order; estimates beyond it are informational.
        ok = rep.passed(direction="constant", max_total=gate)
        failed = failed or not ok
        print(f"  declared order {gate}: {'PASS' if ok else 'FAIL'}")

    return 3 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are config errors here.
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = load_run_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args)
        return cmd_verify(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OrthoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
