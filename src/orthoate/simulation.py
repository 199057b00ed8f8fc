"""Synthetic multi-treatment benchmark: data law, truths, sweep harness.

The data-generating process draws covariates Z ~ N(0, I_p), assigns one
of n treatments by a softmax over the first round(p * r_c) covariates,

    pi_i(Z) = exp(beta_i' Z_c) / sum_j exp(beta_j' Z_c),

and produces potential outcomes

    Y^i = exp(sqrt(d_i)) * (a_i' Z + 1)^2 + xi_i,   xi_i ~ N(0, sd_i^2).

Coefficients default to beta ~ U(-0.1, 0.1) and a ~ U(0.1, 0.5), with
treatment intensities d = (0.1, 0.5, 1) and noise SDs (3, 2, 1) for
three arms.  The population mean outcome has the closed form
exp(sqrt(d_i)) * (||a_i||^2 + 1).

Random streams are purpose-keyed per replication (covariates,
treatment uniforms, one noise stream per arm), so changing p or r_c
never reshuffles treatment or noise draws, and smaller samples are
prefixes of larger ones.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .estimators import (
    Dataset,
    estimate_dml,
    estimate_dr,
    estimate_higher_order,
    estimate_moments,
    make_split,
    pairwise_from_theta,
    relative_ate_error,
)
from .exceptions import ConfigError, InvalidArgument, ShapeMismatch
from .learners import LearnerSpec, fit_nuisances, softmax
from .score import Moments, _validate_orders
from .seeds import seed_int, stream

SWEEP_KINDS = ("confounding", "dimension", "samplesize")
SWEEP_SUMMARY_COLUMNS = ("grid_value", "learner", "estimator", "n", "n_excluded", "eps_ate", "median")

# Purpose tags for per-replication random streams.
_PURPOSE_Z = 0
_PURPOSE_TREATMENT = 1
_PURPOSE_NOISE = 2  # + treatment index
# Stream tags outside the replication namespace.
_TAG_PARAMS = 1 << 20
_TAG_SPLIT = (1 << 20) + 1
_TAG_ESTIMATOR = (1 << 20) + 2
_TAG_NOISE_WRAP = (1 << 20) + 3


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run; (r, k, R) only apply to the higher-order kind."""

    kind: str
    r: int | None = None
    k: int | None = None
    R: int = 100

    def __post_init__(self) -> None:
        if self.kind not in ("dr", "dml", "higher_order"):
            raise ConfigError(f"unknown estimator kind '{self.kind}'")
        if self.kind == "higher_order":
            if self.r is None or self.k is None:
                raise ConfigError("higher_order estimator needs r and k")
            _validate_orders(int(self.r), int(self.k))
            if self.R < 1:
                raise ConfigError("R must be >= 1")

    @property
    def label(self) -> str:
        if self.kind == "higher_order":
            return f"ho({self.r},{self.k})"
        return self.kind


def run_estimators(specs, ds, split, fits, seed: int = 0, moments_from: str = "estimation") -> list:
    """One EstimateReport per spec on the estimation fold of ``ds``.

    The fold's outcome and propensity predictions are made once and
    shared by every estimator.  Training rows are predicted only when a
    higher-order estimator takes its residual moments from the
    training fold (``moments_from="training"``).
    """
    if moments_from not in ("estimation", "training"):
        raise InvalidArgument("moments_from must be 'estimation' or 'training'")
    idx, tr = split.estimation_idx, split.training_idx
    y, d = ds.y[idx], ds.d[idx]
    G = fits.outcome_matrix(ds.Z[idx])
    P, n_floored = fits.propensity_matrix(ds.Z[idx])
    P_train = None
    if moments_from == "training" and any(spec.kind == "higher_order" for spec in specs):
        P_train, _ = fits.propensity_matrix(ds.Z[tr])
    reports = []
    for spec in specs:
        if spec.kind == "dr":
            reports.append(estimate_dr(G))
        elif spec.kind == "dml":
            reports.append(estimate_dml(y, d, G, P, n_floored))
        else:
            r, k = int(spec.r), int(spec.k)
            moments = None
            if P_train is not None:
                moments = [estimate_moments(ds.d[tr], P_train[:, i], i, r) for i in range(G.shape[1])]
            reports.append(estimate_higher_order(
                y, d, G, P, r, k, R=spec.R, seed=seed, moments=moments, n_floored=n_floored
            ))
    return reports


def error_summary(errors, filter_infinite: bool) -> dict:
    """epsilon_ATE and the median of the kept relative errors per (group, estimator).

    ``errors`` holds (group, estimator, unit, rel_error) tuples; a unit
    is a dataset or replication and a group the learner label, or the
    (grid value, learner label) pair of a sweep.  With
    ``filter_infinite`` a unit whose "dml" error in a group is not
    finite is dropped from every estimator of that group.  Returns
    {(group, estimator): (n kept, n excluded, mean, median)}; the mean
    and median are NaN when no unit is kept.
    """
    bad = {
        (group, unit)
        for group, estimator, unit, err in errors
        if filter_infinite and estimator == "dml" and not np.isfinite(err)
    }
    groups: dict = {}
    for group, estimator, unit, err in errors:
        kept, excluded = groups.setdefault((group, estimator), ([], []))
        (excluded if (group, unit) in bad else kept).append(err)
    summary = {}
    for key, (kept, excluded) in groups.items():
        stats = (float(np.mean(kept)), float(np.median(kept))) if kept else (math.nan, math.nan)
        summary[key] = (len(kept), len(excluded), *stats)
    return summary


@dataclass(frozen=True)
class TreatmentOutcomeModel:
    """The true data law: propensities, outcome surfaces, noise scales."""

    beta: np.ndarray
    outcome_coeffs: np.ndarray
    d_levels: np.ndarray
    noise_sd: np.ndarray

    def __post_init__(self) -> None:
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        a = np.atleast_2d(np.asarray(self.outcome_coeffs, dtype=float))
        dl = np.asarray(self.d_levels, dtype=float)
        sd = np.asarray(self.noise_sd, dtype=float)
        n = beta.shape[0]
        if a.shape[0] != n or dl.shape != (n,) or sd.shape != (n,):
            raise ShapeMismatch("model parameter shapes disagree on the treatment count")
        if beta.shape[1] > a.shape[1]:
            raise ShapeMismatch("confounding columns cannot exceed covariate columns")
        if np.any(dl <= 0) or np.any(sd <= 0):
            raise InvalidArgument("d_levels and noise_sd must be positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "outcome_coeffs", a)
        object.__setattr__(self, "d_levels", dl)
        object.__setattr__(self, "noise_sd", sd)

    @property
    def n_treatments(self) -> int:
        return self.beta.shape[0]

    @property
    def p(self) -> int:
        return self.outcome_coeffs.shape[1]

    @property
    def n_confounding(self) -> int:
        return self.beta.shape[1]

    def propensities(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        logits = Z[:, : self.n_confounding] @ self.beta.T
        return softmax(logits)

    def outcome_mean(self, i: int, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        lin = Z @ self.outcome_coeffs[i] + 1.0
        return np.exp(np.sqrt(self.d_levels[i])) * lin**2

    def population_theta(self, i: int) -> float:
        """Closed form: E[(a'Z + 1)^2] = ||a||^2 + 1 under standard normal Z."""
        a = self.outcome_coeffs[i]
        return float(np.exp(np.sqrt(self.d_levels[i])) * (a @ a + 1.0))

    def expected_inverse_propensity(self, i: int) -> float:
        """Closed form E[1 / pi_i(Z)] = sum_j exp(||beta_j - beta_i||^2 / 2)."""
        diff = self.beta - self.beta[i]
        return float(np.exp(0.5 * (diff * diff).sum(axis=1)).sum())

    def assign_treatments(self, pi: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF assignment from one uniform per unit."""
        cum = np.cumsum(pi, axis=1)
        return np.minimum((u[:, None] > cum).sum(axis=1), pi.shape[1] - 1)

    def sample_potential(self, n: int, rng) -> tuple:
        """Draw (Z, d, potential outcomes) for checker-style Monte Carlo."""
        Z = rng.standard_normal((n, self.p))
        pi = self.propensities(Z)
        d = self.assign_treatments(pi, rng.random(n))
        y_pot = np.empty((n, self.n_treatments))
        for i in range(self.n_treatments):
            y_pot[:, i] = self.outcome_mean(i, Z) + rng.normal(0.0, self.noise_sd[i], n)
        return Z, d, y_pot

    def residual_moments(self, i: int, max_order: int, n_nodes: int = 48, mc_draws: int = 500_000, seed: int = 0) -> Moments:
        """Exact-law residual moments E[(1{D=i} - pi_i(Z))**q].

        Conditional on Z the residual is a centred Bernoulli with known
        analytic moments, so only the average over Z needs numerics:
        Gauss-Hermite quadrature over the confounding coordinates when
        there are at most three of them, Monte Carlo otherwise.
        """
        c = self.n_confounding
        if c <= 3:
            nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
            nodes = nodes * np.sqrt(2.0)
            weights = weights / np.sqrt(np.pi)
            grids = np.meshgrid(*([nodes] * c), indexing="ij")
            Zc = np.column_stack([g.ravel() for g in grids])
            w = np.ones(Zc.shape[0])
            for dim in range(c):
                w = w * np.meshgrid(*([weights] * c), indexing="ij")[dim].ravel()
        else:
            Zc = stream(seed, _TAG_PARAMS + 7).standard_normal((mc_draws, c))
            w = np.full(mc_draws, 1.0 / mc_draws)
        pi = softmax(Zc @ self.beta.T)[:, i]
        q = np.arange(1, max_order + 1)[:, None]
        cond = pi * (1.0 - pi) ** q + (1.0 - pi) * (-pi) ** q
        return Moments(cond @ w)


def draw_default_params(p: int, n_confounding: int, n_treatments: int = 3, seed: int = 0):
    """Draw (beta, outcome_coeffs) from the benchmark distributions."""
    rng = stream(seed, _TAG_PARAMS)
    beta = rng.uniform(-0.1, 0.1, size=(n_treatments, n_confounding))
    outcome_coeffs = rng.uniform(0.1, 0.5, size=(n_treatments, p))
    return beta, outcome_coeffs


def default_d_levels(n_treatments: int) -> np.ndarray:
    if n_treatments == 3:
        return np.array([0.1, 0.5, 1.0])
    return np.linspace(0.1, 1.0, n_treatments)


def default_noise_sd(n_treatments: int) -> np.ndarray:
    if n_treatments == 3:
        return np.array([3.0, 2.0, 1.0])
    return np.ones(n_treatments)


@dataclass(frozen=True)
class SimConfig:
    """One benchmark setting: sample size, dimensions, coefficients, seed.

    ``propensity_noise_sd`` > 0 corrupts every fitted propensity of a
    sweep with log-space noise of that SD (:class:`NoisyPropensity`).
    """

    Q: int = 4000
    p: int = 2
    r_c: float = 1.0
    n_treatments: int = 3
    M: int = 20
    master_seed: int = 0
    beta: np.ndarray | None = None
    outcome_coeffs: np.ndarray | None = None
    propensity_noise_sd: float = 0.0

    def __post_init__(self) -> None:
        if self.Q < 1 or self.M < 1 or self.p < 1 or self.n_treatments < 2:
            raise ConfigError("Q, M, p must be >= 1 and n_treatments >= 2")
        if not (0.0 < self.r_c <= 1.0):
            raise ConfigError("r_c must lie in (0, 1]")
        if self.n_confounding < 1:
            raise ConfigError("p * r_c must round to at least one confounder")
        if not (math.isfinite(self.propensity_noise_sd) and self.propensity_noise_sd >= 0.0):
            raise ConfigError(
                f"propensity_noise_sd must be a finite number >= 0, got {self.propensity_noise_sd}"
            )

    @property
    def n_confounding(self) -> int:
        return int(round(self.p * self.r_c))

    def model(self) -> TreatmentOutcomeModel:
        beta, coeffs = self.beta, self.outcome_coeffs
        if beta is None or coeffs is None:
            drawn_beta, drawn_coeffs = draw_default_params(
                self.p, self.n_confounding, self.n_treatments, self.master_seed
            )
            beta = drawn_beta if beta is None else beta
            coeffs = drawn_coeffs if coeffs is None else coeffs
        return TreatmentOutcomeModel(
            beta=np.asarray(beta, dtype=float)[:, : self.n_confounding],
            outcome_coeffs=np.asarray(coeffs, dtype=float)[:, : self.p],
            d_levels=default_d_levels(self.n_treatments),
            noise_sd=default_noise_sd(self.n_treatments),
        )


def generate_dataset(cfg: SimConfig, replication: int = 0) -> Dataset:
    """Draw one dataset whose ``truth`` holds each unit's true outcome means.

    ``ds.truth[:, i]`` is the noiseless outcome surface of arm i at each
    row's covariates, so a fold's target effects are
    ``pairwise_from_theta(ds.truth[idx].mean(axis=0))``.  The same
    (master_seed, replication) regenerates the sample bit for bit.
    Treatment uniforms and noise come from their own streams, so
    covariate-dimension changes leave them untouched.
    """
    model = cfg.model()
    seed = cfg.master_seed
    Z = stream(seed, replication, _PURPOSE_Z).standard_normal((cfg.Q, cfg.p))
    pi = model.propensities(Z)
    u = stream(seed, replication, _PURPOSE_TREATMENT).random(cfg.Q)
    d = model.assign_treatments(pi, u)
    means = np.column_stack([model.outcome_mean(i, Z) for i in range(cfg.n_treatments)])
    y_pot = np.empty_like(means)
    for i in range(cfg.n_treatments):
        noise = stream(seed, replication, _PURPOSE_NOISE + i).normal(0.0, model.noise_sd[i], cfg.Q)
        y_pot[:, i] = means[:, i] + noise
    y = y_pot[np.arange(cfg.Q), d]
    return Dataset(y=y, d=d, Z=Z, truth=means, n_treatments=cfg.n_treatments)


class NoisyPropensity:
    """Wraps a propensity fit, corrupting predictions with log-space noise.

    Noise is regenerated from a fixed seed on every call, so repeated
    predictions on the same rows agree and the corruption is shared by
    every estimator consuming the fit.
    """

    def __init__(self, base, sd: float, seed: int):
        self.base = base
        self.sd = float(sd)
        self.seed = int(seed)

    def predict_proba(self, X) -> np.ndarray:
        P = np.asarray(self.base.predict_proba(X), dtype=float)
        if self.sd == 0.0:
            return P
        noise = stream(self.seed, _TAG_NOISE_WRAP).normal(0.0, self.sd, P.shape)
        logits = np.log(np.clip(P, 1e-300, None)) + noise
        return softmax(logits)


def evaluate_dataset(
    ds: Dataset, split_ratios, seed: int, unit: int, keys, learner_specs, estimator_specs,
    floor: float = 0.0, noise_sd: float = 0.0, moments_from: str = "estimation",
    truth_from: str = "estimation",
):
    """Split ``ds``, fit each learner on the training fold, run every estimator.

    Yields (learner spec, estimator spec, report, rel_error) per combo in
    learner-major order.  ``rel_error`` scores the report's pairwise
    effects against ``ds.truth`` averaged over the estimation fold
    (``truth_from="estimation"``) or every row ("full"); it is None when
    the dataset carries no truth.  The split, fit and estimator seeds
    are ``seed_int(seed, unit, key)`` for the three ``keys``; with
    ``noise_sd`` > 0 every propensity fit is wrapped in
    :class:`NoisyPropensity`.
    """
    if truth_from not in ("estimation", "full"):
        raise InvalidArgument("truth_from must be 'estimation' or 'full'")
    split_key, fit_key, estimator_key = keys
    split = make_split(ds.n, split_ratios, seed=seed_int(seed, unit, split_key))
    target = None
    if ds.truth is not None:
        rows = split.estimation_idx if truth_from == "estimation" else np.arange(ds.n)
        target = pairwise_from_theta(ds.truth[rows].mean(axis=0))
    tr = split.training_idx
    for lspec in learner_specs:
        fits = fit_nuisances(
            ds.Z[tr], ds.y[tr], ds.d[tr], ds.n_treatments, lspec,
            seed=seed_int(seed, unit, fit_key), floor=floor,
        )
        if noise_sd > 0.0:
            fits.propensity = NoisyPropensity(
                fits.propensity, noise_sd, seed_int(seed, unit, _TAG_NOISE_WRAP)
            )
        reports = run_estimators(
            estimator_specs, ds, split, fits, seed_int(seed, unit, estimator_key), moments_from
        )
        for espec, report in zip(estimator_specs, reports):
            err = None if target is None else relative_ate_error(report.ate_pairwise, target)
            yield lspec, espec, report, err


@dataclass(frozen=True)
class SweepRow:
    grid_value: float
    learner: str
    estimator: str
    replication: int
    rel_error: float
    infinite: bool
    nan: bool


@dataclass
class SweepReport:
    """Per-replication relative errors over one sweep grid, one SweepRow each."""

    rows: list = field(default_factory=list)

    def aggregate(self, filter_infinite: bool = False) -> list:
        """Mean and median relative error per (grid value, learner, estimator).

        With ``filter_infinite`` every replication whose DML error is
        non-finite is dropped from all estimators' aggregates at that
        grid point, and the exclusion count is reported.
        """
        groups = error_summary(
            [((r.grid_value, r.learner), r.estimator, r.replication, r.rel_error) for r in self.rows],
            filter_infinite,
        )
        return [dict(zip(SWEEP_SUMMARY_COLUMNS, (*group, estimator, *groups[group, estimator])))
                for group, estimator in sorted(groups)]


def _grid_config(cfg: SimConfig, kind: str, value, beta_full, coeffs_full) -> SimConfig:
    if kind == "samplesize":
        point = replace(cfg, Q=int(value))
    elif kind == "dimension":
        point = replace(cfg, p=int(value))
    else:  # confounding; run_sweep has rejected every other kind
        point = replace(cfg, r_c=float(value))
    return replace(
        point,
        beta=beta_full[:, : point.n_confounding],
        outcome_coeffs=coeffs_full[:, : point.p],
    )


# Spawn keys of a replication's split, fit and estimator seeds.
_SWEEP_KEYS = (_TAG_SPLIT, _TAG_PARAMS + 1, _TAG_ESTIMATOR)


def _sweep_task(learner_specs, estimator_specs, split_ratios, floor, moments_from, truth_from,
                cfg_point, grid_value, rep):
    ds = generate_dataset(cfg_point, rep)
    return [
        SweepRow(grid_value, lspec.label, espec.label, rep, err,
                 report.diagnostics.infinite, report.diagnostics.nan)
        for lspec, espec, report, err in evaluate_dataset(
            ds, split_ratios, cfg_point.master_seed, rep, _SWEEP_KEYS, learner_specs,
            estimator_specs, floor, cfg_point.propensity_noise_sd, moments_from, truth_from,
        )
    ]


def _env_workers() -> int:
    """The sweep worker count from ``ORTHOATE_WORKERS`` (default 1), or ConfigError."""
    raw = os.environ.get("ORTHOATE_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"ORTHOATE_WORKERS: must be an integer >= 1, got {raw!r}")
    return workers


def run_sweep(
    cfg: SimConfig,
    kind: str,
    values,
    estimator_specs,
    learner_specs=(LearnerSpec(),),
    split_ratios=(0.56, 0.14, 0.30),
    propensity_floor: float = 0.0,
    moments_from: str = "estimation",
    truth_from: str = "estimation",
    workers: int | None = None,
) -> SweepReport:
    """Run every estimator/learner combo over a parameter grid.

    Model coefficients are drawn once per sweep at the widest grid
    shape and sliced per grid point, so grid points share parameters
    wherever shapes overlap.  Each (grid point, replication) is an
    independent task; with ``workers`` > 1 tasks run in a process pool,
    and results are identical to the serial order because every task
    seeds its own streams.
    """
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind '{kind}' (choices: {SWEEP_KINDS})")
    values = list(values)
    if not values:
        raise ConfigError("sweep grid must be non-empty")
    if kind == "dimension":
        p_max = max([int(v) for v in values] + [cfg.p])
        conf_max = int(round(p_max * cfg.r_c))
    elif kind == "confounding":
        p_max = cfg.p
        conf_max = int(round(cfg.p * max(float(v) for v in values)))
    else:
        p_max, conf_max = cfg.p, cfg.n_confounding
    if (
        cfg.beta is not None
        and cfg.outcome_coeffs is not None
        and np.asarray(cfg.beta).shape[1] >= conf_max
        and np.asarray(cfg.outcome_coeffs).shape[1] >= p_max
    ):
        beta_full = np.asarray(cfg.beta, dtype=float)
        coeffs_full = np.asarray(cfg.outcome_coeffs, dtype=float)
    else:
        beta_full, coeffs_full = draw_default_params(
            p_max, max(conf_max, 1), cfg.n_treatments, cfg.master_seed
        )
    task = partial(
        _sweep_task, tuple(learner_specs), tuple(estimator_specs), tuple(split_ratios),
        propensity_floor, moments_from, truth_from,
    )
    points = []
    for value in values:
        cfg_point = _grid_config(cfg, kind, value, beta_full, coeffs_full)
        points.extend((cfg_point, value, rep) for rep in range(cfg.M))
    if workers is None:
        workers = _env_workers()
    report = SweepReport()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rows in pool.map(task, *zip(*points)):
                report.rows.extend(rows)
    else:
        for point in points:
            report.rows.extend(task(*point))
    return report
