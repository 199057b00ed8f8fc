import numpy as np
import pytest

from orthoate import (
    ConfigError,
    Dataset,
    EstimatorSpec,
    InvalidArgument,
    LearnerSpec,
    MissingClass,
    NoisyPropensity,
    SimConfig,
    estimate_dr,
    fit_nuisances,
    generate_dataset,
    make_split,
    run_estimators,
    run_sweep,
)
from orthoate import learners
from orthoate.simulation import SweepReport, SweepRow, evaluate_dataset


@pytest.fixture(scope="module")
def cfg() -> SimConfig:
    return SimConfig(Q=4000, p=2, r_c=1.0, n_treatments=3, M=2, master_seed=123)


class TestModel:
    def test_potential_means_closed_form(self, cfg):
        ds = generate_dataset(cfg, 0)
        model = cfg.model()
        for i in range(3):
            want = np.exp(np.sqrt(model.d_levels[i])) * (ds.Z @ model.outcome_coeffs[i] + 1.0) ** 2
            np.testing.assert_allclose(ds.truth[:, i], want, rtol=1e-12)

    def test_population_theta_closed_form(self, cfg):
        model = cfg.model()
        for i in range(3):
            a = model.outcome_coeffs[i]
            want = np.exp(np.sqrt(model.d_levels[i])) * (a @ a + 1.0)
            assert model.population_theta(i) == pytest.approx(want, rel=1e-12)

    def test_treatment_frequencies_match_propensities(self, cfg):
        ds = generate_dataset(cfg, 0)
        pi = cfg.model().propensities(ds.Z)
        for i in range(3):
            target = pi[:, i].mean()
            se = np.sqrt(target * (1 - target) / cfg.Q)
            assert abs((ds.d == i).mean() - target) < 3 * se

    def test_propensities_ignore_non_confounders(self):
        cfg = SimConfig(Q=10, p=4, r_c=0.5, n_treatments=3, M=1, master_seed=5)
        model = cfg.model()
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(50, 4))
        Z_alt = Z.copy()
        Z_alt[:, 2:] = rng.normal(size=(50, 2))
        np.testing.assert_array_equal(model.propensities(Z), model.propensities(Z_alt))

    def test_expected_inverse_propensity_against_monte_carlo(self, cfg):
        model = cfg.model()
        rng = np.random.default_rng(9)
        Z = rng.normal(size=(400_000, 2))
        pi = model.propensities(Z)
        for i in range(3):
            mc = (1.0 / pi[:, i]).mean()
            assert model.expected_inverse_propensity(i) == pytest.approx(mc, rel=0.05)

    def test_zero_beta_gives_uniform_propensities(self):
        cfg = SimConfig(
            Q=10, p=2, r_c=1.0, n_treatments=3, M=1, master_seed=0,
            beta=np.zeros((3, 2)),
        )
        pi = cfg.model().propensities(np.random.default_rng(0).normal(size=(20, 2)))
        np.testing.assert_allclose(pi, 1.0 / 3.0, rtol=1e-12)

    def test_last_arm_noise_floor(self, cfg):
        # The third arm carries unit-variance noise, so Var(y | d = 2) >= 1.
        ds = generate_dataset(cfg, 0)
        assert ds.y[ds.d == 2].var() >= 1.0

    def test_residual_moments_quadrature_matches_monte_carlo(self, cfg):
        model = cfg.model()
        quad = model.residual_moments(0, 4)
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(400_000, 2))
        pi = model.propensities(Z)[:, 0]
        t = (rng.uniform(size=len(pi)) < pi).astype(float)
        nu = t - pi
        mc = [np.mean(nu**q) for q in range(1, 5)]
        assert abs(quad.m(1)) < 1e-12
        np.testing.assert_allclose(quad.values, mc, atol=3e-3)


class TestGeneration:
    def test_bitwise_regeneration(self, cfg):
        a = generate_dataset(cfg, 1)
        b = generate_dataset(cfg, 1)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.d, b.d)
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_replications_differ(self, cfg):
        a = generate_dataset(cfg, 0)
        b = generate_dataset(cfg, 1)
        assert not np.array_equal(a.y, b.y)

    def test_sample_size_prefix_property(self, cfg):
        # Common random numbers: a smaller draw is a row prefix of a larger
        # one, so sample-size sweeps compare nested datasets.
        from dataclasses import replace

        small = generate_dataset(replace(cfg, Q=500), 0)
        large = generate_dataset(replace(cfg, Q=1000), 0)
        np.testing.assert_array_equal(small.Z, large.Z[:500])
        np.testing.assert_array_equal(small.d, large.d[:500])
        np.testing.assert_array_equal(small.y, large.y[:500])


class TestEstimatorSpec:
    def test_labels(self):
        assert EstimatorSpec("dr").label == "dr"
        assert EstimatorSpec("dml").label == "dml"
        assert EstimatorSpec("higher_order", r=4, k=2).label == "ho(4,2)"

    def test_higher_order_requires_orders(self):
        with pytest.raises(ConfigError):
            EstimatorSpec("higher_order")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            EstimatorSpec("aipw")

    def test_run_estimator_dispatch(self, cfg):
        ds = generate_dataset(cfg, 0)
        split = make_split(ds.n, (0.56, 0.14, 0.30), seed=1)
        tr = split.training_idx
        fits = fit_nuisances(ds.Z[tr], ds.y[tr], ds.d[tr], 3, LearnerSpec(), seed=2)
        via_spec = run_estimators([EstimatorSpec("dr")], ds, split, fits, seed=0)[0]
        direct = estimate_dr(fits.outcome_matrix(ds.Z[split.estimation_idx]))
        np.testing.assert_array_equal(via_spec.theta, direct.theta)


class TestFitNuisances:
    @pytest.mark.parametrize("spec", [
        LearnerSpec(),
        LearnerSpec(regressor="forest", propensity="forest", n_trees=2, max_depth=2),
    ], ids=["lasso+logistic", "forest+forest"])
    def test_arm_without_training_rows_is_named_before_any_fit(self, spec):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        d = np.tile([0, 2], 15)
        with pytest.raises(MissingClass, match=r"arm\(s\) \[1\]"):
            fit_nuisances(X, y, d, 3, spec, seed=0)

    @pytest.mark.parametrize("n_treatments", [3_000_001, 10**18])
    def test_huge_arm_count_is_named_briefly(self, n_treatments):
        # Finding the missing arms must not loop over every arm.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(41, 2))
        y = rng.normal(size=41)
        d = np.r_[np.arange(40) % 3, n_treatments - 1]
        with pytest.raises(MissingClass) as err:
            fit_nuisances(X, y, d, n_treatments, LearnerSpec(), seed=0)
        message = str(err.value)
        assert len(message) < 200
        assert "[3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...]" in message
        assert f"({n_treatments - 4} of {n_treatments} arms)" in message


    @pytest.mark.parametrize("bad, match", [
        (3_000_000, r"treatment labels must lie in \[0, 3\), got \[3000000\]"),
        (10**18, r"treatment labels must lie in \[0, 3\), got \[1000000000000000000\]"),
        (-1, "treatment labels must be non-negative integers"),
    ])
    def test_label_outside_the_arms_is_named_before_any_fit(self, monkeypatch, bad, match):
        def no_fit(*args, **kwargs):
            raise AssertionError("an outcome model was fit")

        monkeypatch.setattr(learners, "fit_lasso_cv", no_fit)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(41, 2))
        y = rng.normal(size=41)
        d = np.r_[np.arange(40) % 3, bad]
        with pytest.raises(InvalidArgument, match=match):
            fit_nuisances(X, y, d, 3, LearnerSpec(), seed=0)


def test_evaluate_dataset_scores_only_datasets_with_truth():
    ds = generate_dataset(SimConfig(Q=300, M=1, master_seed=4))
    bare = Dataset(y=ds.y, d=ds.d, Z=ds.Z, truth=None, n_treatments=3)
    lspecs = (LearnerSpec(), LearnerSpec(propensity="forest", n_trees=5))
    especs = (EstimatorSpec("dr"), EstimatorSpec("dml"))
    scored, unscored = (
        list(evaluate_dataset(data, (0.56, 0.14, 0.30), 4, 0, (0, 1, 2), lspecs, especs))
        for data in (ds, bare)
    )
    assert [(ls, es) for ls, es, _, _ in scored] == [(ls, es) for ls in lspecs for es in especs]
    assert all(np.isfinite(err) for *_, err in scored)
    assert [err for *_, err in unscored] == [None] * 4
    for (*_, a, _), (*_, b, _) in zip(scored, unscored):
        np.testing.assert_array_equal(a.ate_pairwise, b.ate_pairwise)


class TestNoisyPropensity:
    class _Base:
        def predict_proba(self, X):
            return np.tile([0.2, 0.3, 0.5], (len(X), 1))

    def test_rows_stay_on_simplex(self):
        noisy = NoisyPropensity(self._Base(), sd=0.5, seed=3)
        P = noisy.predict_proba(np.zeros((40, 2)))
        np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(P > 0)

    def test_deterministic_per_call(self):
        noisy = NoisyPropensity(self._Base(), sd=0.5, seed=3)
        X = np.zeros((10, 2))
        np.testing.assert_array_equal(noisy.predict_proba(X), noisy.predict_proba(X))

    def test_zero_sd_is_identity(self):
        noisy = NoisyPropensity(self._Base(), sd=0.0, seed=3)
        X = np.zeros((5, 2))
        np.testing.assert_array_equal(noisy.predict_proba(X), self._Base().predict_proba(X))

    def test_noise_changes_values(self):
        noisy = NoisyPropensity(self._Base(), sd=0.5, seed=3)
        X = np.zeros((5, 2))
        assert not np.array_equal(noisy.predict_proba(X), self._Base().predict_proba(X))


@pytest.fixture(scope="module")
def small_report():
    cfg = SimConfig(Q=400, p=2, r_c=1.0, n_treatments=3, M=2, master_seed=7)
    return run_sweep(
        cfg, "samplesize", (300, 400),
        (EstimatorSpec("dr"), EstimatorSpec("higher_order", r=2, k=2, R=10)),
    )


class TestSweep:
    def test_row_count(self, small_report):
        # 2 grid points x 2 replications x 1 learner x 2 estimators.
        assert len(small_report.rows) == 8

    def test_rel_errors_finite(self, small_report):
        errs = np.array([r.rel_error for r in small_report.rows
                         if r.grid_value == 300 and r.learner == "lasso+logistic"
                         and r.estimator == "dr"])
        assert errs.shape == (2,)
        assert np.all(np.isfinite(errs))

    def test_aggregate_shape(self, small_report):
        agg = small_report.aggregate()
        assert len(agg) == 4
        for row in agg:
            assert set(row) >= {"grid_value", "learner", "estimator", "eps_ate", "median", "n"}

    def test_deterministic(self):
        cfg = SimConfig(Q=300, p=2, r_c=1.0, n_treatments=3, M=1, master_seed=19)
        specs = (EstimatorSpec("dml"),)
        a = run_sweep(cfg, "samplesize", (300,), specs)
        b = run_sweep(cfg, "samplesize", (300,), specs)
        assert [r.rel_error for r in a.rows] == [r.rel_error for r in b.rows]

    def test_propensity_noise_sd_outside_its_domain(self):
        # Negative and nan once ran without noise; inf gave nan errors reported as success.
        for sd in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="propensity_noise_sd must be a finite number >= 0"):
                SimConfig(Q=300, M=1, propensity_noise_sd=sd)

    def test_unknown_kind_rejected(self):
        cfg = SimConfig(Q=300, p=2, M=1)
        with pytest.raises(ConfigError):
            run_sweep(cfg, "noise", (0.1,), (EstimatorSpec("dr"),))

    def test_filter_infinite_drops_whole_replication(self):
        rows = [
            SweepRow(1.0, "l", "dml", 0, np.inf, True, False),
            SweepRow(1.0, "l", "dml", 1, 0.4, False, False),
            SweepRow(1.0, "l", "dr", 0, 0.2, False, False),
            SweepRow(1.0, "l", "dr", 1, 0.6, False, False),
        ]
        rep = SweepReport(rows)
        plain = {(r["estimator"]): r for r in rep.aggregate(filter_infinite=False)}
        assert not np.isfinite(plain["dml"]["eps_ate"])
        filt = {(r["estimator"]): r for r in rep.aggregate(filter_infinite=True)}
        assert filt["dml"]["eps_ate"] == pytest.approx(0.4)
        assert filt["dr"]["eps_ate"] == pytest.approx(0.6)
        assert filt["dr"]["n_excluded"] == 1

    def test_worker_pool_matches_serial(self):
        cfg = SimConfig(Q=300, p=2, r_c=1.0, n_treatments=3, M=2, master_seed=3)
        specs = (EstimatorSpec("dr"),)
        serial = run_sweep(cfg, "samplesize", (300,), specs, workers=1)
        parallel = run_sweep(cfg, "samplesize", (300,), specs, workers=2)
        assert [r.rel_error for r in serial.rows] == [r.rel_error for r in parallel.rows]
