"""Acceptance suite: nine numbered end-to-end criteria, AC-1 to AC-9.

Each test enforces one criterion at its stated tolerance and time budget
and records one PASS/FAIL line for the terminal summary.  Budgets count
this process's CPU time, so load from other processes cannot fail them.
The statistical criteria run on frozen seeds, so a pass here is exactly
reproducible.
"""

import math
import time
from pathlib import Path

import numpy as np

from orthoate import (
    EstimatorSpec,
    LearnerSpec,
    Moments,
    NuisanceFits,
    SimConfig,
    SplitPlan,
    check_orthogonality,
    compute_coefficients,
    estimate_dml,
    estimate_dr,
    estimate_higher_order,
    generate_dataset,
    load_csv_dataset,
    make_split,
    pairwise_from_theta,
    random_realizable_moments,
    relative_ate_error,
    run_sweep,
    score_values,
    solve_coefficients_oracle,
)
from orthoate.simulation import error_summary

DATA = Path(__file__).parent / "data"


def fold_arrays(ds, split, fits) -> tuple:
    """(y, d, G, P) of the estimation fold, as the estimators take them."""
    idx = split.estimation_idx
    P, _ = fits.propensity_matrix(ds.Z[idx])
    return ds.y[idx], ds.d[idx], fits.outcome_matrix(ds.Z[idx]), P


def test_ac1_recursion_matches_linear_system_oracle(acceptance_log):
    """All (r, k), 2 <= k <= r <= 6, on 200 realizable moment sequences."""
    t0 = time.process_time()
    rng = np.random.default_rng(np.random.SeedSequence(42))
    seqs = [random_realizable_moments(rng, 6) for _ in range(200)]
    worst = 0.0
    for r in range(2, 7):
        for k in range(2, r + 1):
            for mom in seqs:
                got = compute_coefficients(r, k, mom)
                want = solve_coefficients_oracle(r, k, mom)
                g = np.append(got.b, got.bar_b_r)
                w = np.append(want.b, want.bar_b_r)
                rel = np.abs(g - w) / np.maximum(np.abs(w), 1e-300)
                worst = max(worst, float(rel.max()))
    elapsed = time.process_time() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    acceptance_log("AC-1 coefficient oracle equivalence", ok,
                   f"worst rel {worst:.2e} < 1e-9, {elapsed:.2f}s < 1s")
    assert ok, f"worst rel {worst:.2e}, elapsed {elapsed:.2f}s"


def test_ac2_order_collapse_pointwise(acceptance_log):
    """With exact moments the (r, r-1) and (r, r) scores coincide."""
    t0 = time.process_time()
    tt, aa = np.meshgrid(np.linspace(0.0, 1.0, 100), np.linspace(0.05, 0.95, 100))
    tt, aa = tt.ravel(), aa.ravel()
    worst = 0.0
    for r in range(3, 7):
        mom = Moments.from_bernoulli(0.3, r)
        lo = compute_coefficients(r, r - 1, mom)
        hi = compute_coefficients(r, r, mom)
        s_lo = score_values(tt, aa, 2.0, 0.5, 1.0, lo, mom)
        s_hi = score_values(tt, aa, 2.0, 0.5, 1.0, hi, mom)
        worst = max(worst, float(np.abs(s_lo - s_hi).max()))
    elapsed = time.process_time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    acceptance_log("AC-2 order collapse (r,r-1) vs (r,r)", ok,
                   f"worst abs {worst:.2e} <= 1e-12, {elapsed:.2f}s < 1s")
    assert ok, f"worst abs {worst:.2e}, elapsed {elapsed:.2f}s"


def test_ac3_orthogonality_order(acceptance_log):
    """(2,2) derivatives vanish up to order 2; the t/a score fails at (1,1).

    The (1,1) estimate carries the central-difference O(eps^2) factor
    a^2/(a^2 - eps^2), so it is compared to the analytic -E[1/pi] at 10%
    relative; the pass/fail gates are sign and a 5 SE exceedance.
    """
    t0 = time.process_time()
    model = SimConfig(Q=10, p=2, r_c=1.0, n_treatments=3, M=1, master_seed=0).model()
    mom = model.residual_moments(0, 2)
    coeffs = compute_coefficients(2, 2, mom)
    rep22 = check_orthogonality(coeffs, mom, model, order=2, epsilon=0.05,
                                n_draws=200_000, seed=123, treatment=0,
                                directions=("constant",))
    rep_dml = check_orthogonality(None, None, model, order=2, epsilon=0.05,
                                  n_draws=200_000, seed=123, treatment=0,
                                  directions=("constant",))
    ho_ok = rep22.passed(direction="constant", max_total=2)
    e = rep_dml.entry((1, 1), "constant")
    analytic = -model.expected_inverse_propensity(0)
    dml_ok = e.estimate < 0 and abs(e.estimate) > 5.0 * e.se
    anchor_ok = abs(e.estimate - analytic) / abs(analytic) < 0.1
    elapsed = time.process_time() - t0
    ok = ho_ok and dml_ok and anchor_ok and elapsed < 30.0
    acceptance_log("AC-3 orthogonality order at 2e5 draws", ok,
                   f"(2,2) clean to order 2; t/a (1,1) {e.estimate:+.3f} "
                   f"vs analytic {analytic:+.3f}, {abs(e.estimate)/e.se:.0f} SE, "
                   f"{elapsed:.1f}s < 30s")
    assert ok, (ho_ok, e.estimate, e.se, analytic, elapsed)


def test_ac4_sample_size_consistency_trend(acceptance_log):
    """Median relative error is non-increasing in Q for lasso+logistic (2,2)."""
    t0 = time.process_time()
    grid = [1000, 2000, 4000, 8000]
    cfg = SimConfig(Q=max(grid), p=2, r_c=1.0, n_treatments=3, M=20, master_seed=0)
    report = run_sweep(
        cfg, "samplesize", grid,
        estimator_specs=[EstimatorSpec("higher_order", r=2, k=2, R=100)],
        learner_specs=[LearnerSpec(regressor="lasso", propensity="logistic")],
    )
    med = {row["grid_value"]: row["median"] for row in report.aggregate()}
    monotone = all(med[grid[i + 1]] <= med[grid[i]] for i in range(len(grid) - 1))
    endpoint = med[grid[-1]] < med[grid[0]]
    elapsed = time.process_time() - t0
    ok = monotone and endpoint and elapsed < 300.0
    acceptance_log("AC-4 consistency trend over Q", ok,
                   "medians " + " >= ".join(f"{med[q]:.3f}" for q in grid)
                   + f", {elapsed:.1f}s < 300s")
    assert ok, (med, elapsed)


def test_ac5_oracle_nuisance_unbiasedness(acceptance_log):
    """True nuisances and exact moments: replication mean hits the population
    potential-outcome means within 3 SE, for both (2,2) and (4,2)."""
    t0 = time.process_time()
    cfg = SimConfig(Q=2000, p=2, r_c=1.0, n_treatments=3, M=1, master_seed=5)
    model = cfg.model()
    fits = NuisanceFits.from_callables(
        [lambda Z, i=i: model.outcome_mean(i, Z) for i in range(3)],
        model.propensities,
    )
    exact = tuple(model.residual_moments(i, 4) for i in range(3))
    pop = np.array([model.population_theta(i) for i in range(3)])
    reps = 200
    draws = {(2, 2): [], (4, 2): []}
    for rep in range(reps):
        ds = generate_dataset(cfg, rep)
        split = make_split(ds.n, seed=rep + 1)
        arrays = fold_arrays(ds, split, fits)
        for rk in draws:
            out = estimate_higher_order(*arrays, *rk, R=10, seed=rep, moments=exact)
            draws[rk].append(out.theta)
    worst = 0.0
    for rk, vals in draws.items():
        arr = np.asarray(vals)
        dev = arr.mean(axis=0) - pop
        se = arr.std(axis=0, ddof=1) / np.sqrt(reps)
        worst = max(worst, float(np.max(np.abs(dev) / se)))
    elapsed = time.process_time() - t0
    ok = worst < 3.0 and elapsed < 120.0
    acceptance_log("AC-5 oracle-nuisance unbiasedness (200 reps)", ok,
                   f"worst |dev|/SE {worst:.2f} < 3, {elapsed:.1f}s < 120s")
    assert ok, (worst, elapsed)


def test_ac6_resampling_variance_law(acceptance_log):
    """Var of the counterfactual term follows the (1 + 1/R) law.

    With data and fits held fixed, theta varies across seeds only
    through the resampling term, so Delta(R) = theta_R(seed) -
    theta_1(independent seed) has variance sigma^2 (1/R + 1), and the
    R=1 to R=100 variance ratio should sit near 2/1.01 ~ 1.98.
    """
    t0 = time.process_time()
    rng = np.random.default_rng(2024)
    n = 500
    Z = rng.standard_normal((n, 2))
    pi1 = 1.0 / (1.0 + np.exp(-0.8 * Z[:, 0]))
    d = (rng.random(n) < pi1).astype(int)
    y = 1.0 + Z[:, 0] + 0.5 * d + rng.normal(0.0, 1.0, n)
    from orthoate import Dataset

    ds = Dataset(y=y, d=d, Z=Z, n_treatments=2)
    idx = np.arange(n)
    split = SplitPlan(estimation_idx=idx[100:], training_idx=idx[:100])
    fits = NuisanceFits.from_callables(
        [lambda Z: 1.0 + Z[:, 0], lambda Z: 1.5 + Z[:, 0]],
        lambda Z: np.column_stack([1.0 - 1.0 / (1.0 + np.exp(-0.8 * Z[:, 0])),
                                   1.0 / (1.0 + np.exp(-0.8 * Z[:, 0]))]),
    )

    arrays = fold_arrays(ds, split, fits)

    def theta0(R, seed):
        return estimate_higher_order(*arrays, 2, 2, R=R, seed=seed).theta[0]

    trials = 500
    d1 = np.array([theta0(1, 2 * s) - theta0(1, 2 * s + 1) for s in range(trials)])
    d100 = np.array([theta0(100, 10_000 + 2 * s) - theta0(1, 10_000 + 2 * s + 1)
                     for s in range(trials)])
    ratio = float(d1.var(ddof=1) / d100.var(ddof=1))
    elapsed = time.process_time() - t0
    ok = 1.5 <= ratio <= 2.5 and elapsed < 60.0
    acceptance_log("AC-6 resampling variance law (500 trials)", ok,
                   f"ratio {ratio:.2f} in [1.5, 2.5], predicted 1.98, "
                   f"{elapsed:.1f}s < 60s")
    assert ok, (ratio, elapsed)


def test_ac7_robustness_to_propensity_noise(acceptance_log):
    """Logit-space N(0, 0.5^2) propensity corruption over M=20 datasets.

    The default benchmark draw gives near-uniform propensities, which
    hides the inverse-weight fragility, so the model here fixes an
    informative confounding matrix and a mild outcome curvature; 5
    master seeds were spot-checked and all pass these gates.
    """
    t0 = time.process_time()
    Q = 8000
    beta = 0.8 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    coeffs = np.array([[0.15, 0.20], [0.18, 0.14], [0.25, 0.18]])
    cfg = SimConfig(Q=Q, p=2, r_c=1.0, n_treatments=3, M=20, master_seed=0,
                    beta=beta, outcome_coeffs=coeffs, propensity_noise_sd=0.5)
    report = run_sweep(
        cfg, "samplesize", [Q],
        estimator_specs=[EstimatorSpec("dml"),
                         EstimatorSpec("higher_order", r=2, k=2, R=100)],
        learner_specs=[LearnerSpec(regressor="lasso", propensity="logistic")],
    )
    e22, edml = (np.array([r.rel_error for r in report.rows if r.estimator == label])
                 for label in ("ho(2,2)", "dml"))
    m22, mdml = float(np.median(e22)), float(np.median(edml))
    median_ordered = m22 <= mdml
    dml_has_outlier = bool((edml > 2.0 * mdml).any())
    ho_has_none = not bool((e22 > 2.0 * m22).any())
    elapsed = time.process_time() - t0
    ok = median_ordered and dml_has_outlier and ho_has_none and elapsed < 180.0
    acceptance_log("AC-7 robustness under noisy propensities", ok,
                   f"median (2,2) {m22:.3f} <= dml {mdml:.3f}; dml outliers "
                   f"{int((edml > 2 * mdml).sum())}, (2,2) outliers "
                   f"{int((e22 > 2 * m22).sum())}, {elapsed:.1f}s < 180s")
    assert ok, (m22, mdml, edml.max(), e22.max(), elapsed)


def test_ac8_hand_worked_fixture(acceptance_log):
    """The committed 6-row dataset against stored hand computations.

    Rows 0-1 form the training fold (unused: nuisances are injected),
    rows 2-5 the estimation fold with y = (9, 10, 6, 3), d = (1, 1, 1, 0).
    ghat is the fold mean 7 for both arms; pihat is the fold's empirical
    treated fraction (3/4, so pi = (1/4, 3/4)).  By hand:

    * DR: fold mean of ghat = 7 for both arms.
    * t/a weighting: arm 1: 7 + (2 + 3 - 1)/(3/4)/4 = 7 + 4/3 = 25/3;
      arm 0: 7 + (-4)/(1/4)/4 = 3.
    * (2,2): residual nu has m1 = 0 exactly and m2 = 3/16, so
      bar_b_2 = 16/3 and b_1 = 0.  Arm 1: A = 1/3 factual, 3
      counterfactual; terms 7 + 1/3 + (3/4) * draw.  Arm 0: A = 3
      factual, 1/3 counterfactual; terms 7 - 3 + (1/3)(-4) * 3/4 = 3.
    * Pinned streams at seed 7, R = 1: the arm-1 stream draws pool
      index 2 (residual -1), the arm-0 pool has one element, so
      theta = (3, 7 + 1/3 - 3/4) = (3, 79/12).
    """
    t0 = time.process_time()
    ds = load_csv_dataset(DATA / "toy_six_rows.csv")
    split = SplitPlan(estimation_idx=np.array([2, 3, 4, 5]),
                      training_idx=np.array([0, 1]))
    fits = NuisanceFits.from_callables(
        [lambda Z: np.full(len(Z), 7.0), lambda Z: np.full(len(Z), 7.0)],
        lambda Z: np.column_stack([np.full(len(Z), 0.25), np.full(len(Z), 0.75)]),
    )
    # Stream canary: the stored numbers assume this draw.
    pinned = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1, 0)))
    assert pinned.integers(0, 3, size=1)[0] == 2

    y, d, G, P = fold_arrays(ds, split, fits)
    dr = estimate_dr(G).theta
    dml = estimate_dml(y, d, G, P).theta
    ho = estimate_higher_order(y, d, G, P, r=2, k=2, R=1, seed=7).theta
    hand = {
        "dr": np.array([7.0, 7.0]),
        "dml": np.array([3.0, 25.0 / 3.0]),
        "ho(2,2)": np.array([3.0, 79.0 / 12.0]),
    }
    worst = max(
        float(np.abs(dr - hand["dr"]).max()),
        float(np.abs(dml - hand["dml"]).max()),
        float(np.abs(ho - hand["ho(2,2)"]).max()),
    )
    elapsed = time.process_time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    acceptance_log("AC-8 hand-worked toy fixture", ok,
                   f"worst |theta - hand| {worst:.1e} <= 1e-12, {elapsed:.2f}s < 1s")
    assert ok, (dr, dml, ho, elapsed)


def epsilon_ate(hats, truths) -> float:
    """epsilon_ATE of one estimator over datasets, by the rule the reports use."""
    errors = [("learner", "ho(2,2)", unit, relative_ate_error(hat, true))
              for unit, (hat, true) in enumerate(zip(hats, truths))]
    return error_summary(errors, filter_infinite=False)["learner", "ho(2,2)"][2]


def test_ac9_relative_error_metric_examples(acceptance_log):
    """The three documented metric examples hold with exact equality.

    The expectations transcribe the examples' own arithmetic, evaluated
    in the same double precision the metric uses, and the mean over
    datasets is the one the estimate and sweep summaries report.
    """
    base = pairwise_from_theta(np.array([1.0, 0.0]))
    e1 = epsilon_ate([base], [base])

    hat = pairwise_from_theta(np.array([1.1, 0.0]))
    e2 = epsilon_ate([hat], [base])
    want2 = (abs(1.1 - 1.0) + abs(1.1 - 1.0)) / (1 + 1)

    hat3 = pairwise_from_theta(np.array([1.3, 0.0]))
    e3 = epsilon_ate([hat, hat3], [base, base])
    per1 = (abs(1.1 - 1.0) + abs(1.1 - 1.0)) / 2
    per2 = (abs(1.3 - 1.0) + abs(1.3 - 1.0)) / 2
    want3 = (per1 + per2) / 2

    ok = (e1 == 0.0 and e2 == want2 and e3 == want3
          and math.isclose(e2, 0.1, abs_tol=1e-15)
          and math.isclose(e3, 0.2, abs_tol=1e-15))
    acceptance_log("AC-9 relative-error metric examples", ok,
                   "0, 0.1, 0.2: all equal their own arithmetic exactly")
    assert ok, (e1, e2, e3)
