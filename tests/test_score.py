import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoate import (
    DegenerateMoment,
    InvalidOrder,
    Moments,
    NonFinite,
    OrthoCoefficients,
    ShapeMismatch,
    SimConfig,
    SingularSystem,
    binomial,
    compute_coefficients,
    correction_values,
    dml_score_values,
    random_realizable_moments,
    score_values,
    solve_coefficients_oracle,
)

from conftest import moment_sequences
from orthoate.gateaux import draw_at_truth
from score_reference import correction_derivative_values, correction_values_reference


def all_rk_pairs(r_max: int = 6):
    return [(r, k) for r in range(2, r_max + 1) for k in range(2, r + 1)]


def coeff_vector(c: OrthoCoefficients) -> np.ndarray:
    return np.append(c.b, c.bar_b_r)


class TestMoments:
    def test_bernoulli_03_closed_form(self, bernoulli_03_moments):
        # pi(1-pi)^q + (1-pi)(-pi)^q for q = 1..4
        got = bernoulli_03_moments.values[:4]
        assert got[0] == 0.0
        np.testing.assert_allclose(got, [0.0, 0.21, 0.084, 0.0777], rtol=1e-12, atol=1e-15)

    def test_m_zero_is_one(self, bernoulli_03_moments):
        assert bernoulli_03_moments.m(0) == 1.0

    def test_mixture_is_convex_combination(self):
        single_a = Moments.from_bernoulli(0.2, 5)
        single_b = Moments.from_bernoulli(0.4, 5)
        mix = Moments.from_bernoulli_mixture([0.25, 0.75], [0.2, 0.4], 5)
        np.testing.assert_allclose(
            mix.values, 0.25 * single_a.values + 0.75 * single_b.values, rtol=1e-14
        )

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            Moments([0.0, np.nan])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Moments([0.0, 1.5])

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeMismatch):
            Moments([[0.0, 0.2]])


class TestCoefficients:
    def test_2_2_frozen(self, bernoulli_03_moments):
        c = compute_coefficients(2, 2, bernoulli_03_moments)
        assert c.bar_b_r == pytest.approx(1.0 / 0.21, rel=1e-14)
        assert c.b[0] == 0.0

    def test_4_2_frozen(self, bernoulli_03_moments):
        # bar_b_4 = 1/m4, b_1 = -C(4,1) m3 / m4; frozen from the closed form.
        c = compute_coefficients(4, 2, bernoulli_03_moments)
        assert c.bar_b_r == pytest.approx(12.87001287001287, rel=1e-12)
        assert c.b[0] == pytest.approx(-4.324324324324325, rel=1e-12)

    def test_b_length_is_k_minus_1(self, bernoulli_03_moments):
        for r, k in all_rk_pairs():
            c = compute_coefficients(r, k, bernoulli_03_moments)
            assert c.b.shape == (k - 1,)

    def test_oracle_matches_recursion_everywhere(self):
        seqs = moment_sequences(50, 6, seed=123)
        for r, k in all_rk_pairs():
            for mom in seqs:
                got = coeff_vector(compute_coefficients(r, k, mom))
                want = coeff_vector(solve_coefficients_oracle(r, k, mom))
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(2, 16), data=st.data())
    def test_recursion_matches_oracle_on_realizable_moments(self, seed, r, data):
        k = data.draw(st.integers(2, r), label="k")
        mom = random_realizable_moments(np.random.default_rng(seed), r)
        try:
            want = coeff_vector(solve_coefficients_oracle(r, k, mom))
        except SingularSystem:  # the dense system is singular only at some r >= 15
            return
        got = coeff_vector(compute_coefficients(r, k, mom))
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-9

    def test_oracle_5_4_bernoulli(self):
        mom = Moments.from_bernoulli(0.3, 5)
        got = coeff_vector(compute_coefficients(5, 4, mom))
        want = coeff_vector(solve_coefficients_oracle(5, 4, mom))
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_degenerate_odd_moment(self):
        # Bernoulli(0.5) has m3 = 0 exactly.
        with pytest.raises(DegenerateMoment):
            compute_coefficients(3, 2, Moments.from_bernoulli(0.5, 3))

    def test_oracle_degenerate_raises(self):
        tiny = Moments([0.0, 0.25, 0.0, 1e-12])
        with pytest.raises((DegenerateMoment, SingularSystem)):
            solve_coefficients_oracle(4, 4, tiny)

    def test_invalid_orders(self, bernoulli_03_moments):
        for r, k in [(1, 1), (4, 1), (2, 3), (0, 0)]:
            with pytest.raises(InvalidOrder):
                compute_coefficients(r, k, bernoulli_03_moments)
        with pytest.raises(InvalidOrder, match="k must satisfy 2 <= k <= r"):
            compute_coefficients(3, 4, bernoulli_03_moments)

    def test_moments_too_short(self):
        with pytest.raises(InvalidOrder):
            compute_coefficients(4, 2, Moments([0.0, 0.21, 0.084]))


class TestCorrection:
    def test_2_2_treated_value(self, bernoulli_03_moments):
        c = compute_coefficients(2, 2, bernoulli_03_moments)
        val = correction_values(1.0, 0.3, c, bernoulli_03_moments)
        assert val == pytest.approx(0.49 / 0.21, rel=1e-14)

    def test_normalization_exact_expectation(self):
        # E[A] = pi A(1, pi) + (1 - pi) A(0, pi) must be exactly 1.
        for pi in (0.1, 0.3, 0.45, 0.7):
            mom = Moments.from_bernoulli(pi, 6)
            for r, k in all_rk_pairs():
                c = compute_coefficients(r, k, mom)
                ea = pi * correction_values(1.0, pi, c, mom) + (1 - pi) * correction_values(
                    0.0, pi, c, mom
                )
                assert ea == pytest.approx(1.0, abs=1e-10), (r, k, pi)

    def test_centered_summands_have_zero_mean(self, bernoulli_03_moments):
        # Each b_q ((t-a)^q - m_q) integrates to zero under the Bernoulli law.
        pi = 0.3
        for q in range(1, 5):
            summand = lambda t: (t - pi) ** q - bernoulli_03_moments.m(q)
            assert pi * summand(1.0) + (1 - pi) * summand(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_coefficients_give_zero(self, bernoulli_03_moments):
        c = OrthoCoefficients(r=3, k=3, bar_b_r=0.0, b=np.zeros(2))
        assert correction_values(0.0, 0.4, c, bernoulli_03_moments) == 0.0

    def test_order_collapse_3(self, bernoulli_03_moments):
        c_a = compute_coefficients(3, 2, bernoulli_03_moments)
        c_b = compute_coefficients(3, 3, bernoulli_03_moments)
        t, a = np.meshgrid(np.array([0.0, 1.0]), np.linspace(0.05, 0.95, 31))
        va = correction_values(t.ravel(), a.ravel(), c_a, bernoulli_03_moments)
        vb = correction_values(t.ravel(), a.ravel(), c_b, bernoulli_03_moments)
        np.testing.assert_allclose(va, vb, atol=1e-12)
        # The extra coefficient is exactly zero because m1 = 0.
        assert c_b.b[1] == 0.0

    def test_vectorized_matches_scalar(self, bernoulli_03_moments):
        c = compute_coefficients(4, 3, bernoulli_03_moments)
        rng = np.random.default_rng(5)
        t = rng.integers(0, 2, 40).astype(float)
        a = rng.uniform(0.05, 0.95, 40)
        vec = correction_values(t, a, c, bernoulli_03_moments)
        for j in range(40):
            scalar = float(correction_values(int(t[j]), a[j], c, bernoulli_03_moments))
            assert vec[j] == pytest.approx(scalar, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        start=st.integers(1, 7),
        length=st.integers(0, 500).map(lambda h: 2 * h + 1),
    )
    def test_slices_give_the_bits_of_the_whole_array(self, seed, start, length):
        # The Gateaux stencil evaluates corrections by row blocks, which is
        # exact only if each element's bits do not depend on its neighbours
        # or its alignment; numpy's ** takes different paths for negative
        # and non-negative bases.
        rng = np.random.default_rng(seed)
        n = 2051
        t = rng.integers(0, 2, n).astype(float)
        a = rng.uniform(0.01, 0.99, n)
        mom = random_realizable_moments(rng, 6)
        cuts = [0, *range(start, n, length)[:12], n]
        for r, k in all_rk_pairs(6):
            c = compute_coefficients(r, k, mom)
            whole = correction_values(t, a, c, mom)
            parts = [correction_values(t[lo:hi], a[lo:hi], c, mom) for lo, hi in zip(cuts, cuts[1:])]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), (r, k)


@pytest.fixture(scope="module")
def verify_draw():
    """The seed-1 draw of the README verify block (Q=4000, p=2, 3 arms, 200,000 draws)."""
    model = SimConfig(Q=4000, p=2, r_c=1.0, n_treatments=3, M=1, master_seed=1).model()
    return model, draw_at_truth(model, 200_000, 1, 0, 2, 0.05)


@pytest.mark.parametrize("rk", [(2, 2), (4, 2), (3, 2), (6, 4)])
def test_correction_matches_the_power_oracle_at_every_stencil_offset(verify_draw, rk):
    model, draw = verify_draw
    moments = model.residual_moments(0, rk[0])
    c = compute_coefficients(rk[0], rk[1], moments)
    for _, _, h_a in draw.directions:
        for ot in range(-draw.order, draw.order + 1):
            # The propensity the stencil evaluates at offset ot.
            a = draw.a0 + ot * draw.epsilon * h_a
            got = correction_values(draw.t_ind, a, c, moments)
            want = correction_values_reference(draw.t_ind, a, c, moments)
            assert got.tobytes() == want.tobytes(), (rk, ot)


class TestDerivative:
    def test_matches_central_difference(self, bernoulli_03_moments):
        c = compute_coefficients(4, 3, bernoulli_03_moments)
        rng = np.random.default_rng(9)
        t = rng.integers(0, 2, 20).astype(float)
        a = rng.uniform(0.2, 0.8, 20)
        analytic = correction_derivative_values(t, a, c, bernoulli_03_moments, order=1)

        def fd(eps):
            hi = correction_values(t, a + eps, c, bernoulli_03_moments)
            lo = correction_values(t, a - eps, c, bernoulli_03_moments)
            return (hi - lo) / (2 * eps)

        err1 = np.max(np.abs(fd(1e-3) - analytic))
        err2 = np.max(np.abs(fd(5e-4) - analytic))
        assert err1 < 1e-4
        # Central differences converge at O(eps^2): halving eps quarters the error.
        assert err2 < 0.3 * err1

    def test_second_derivative_2_2_constant(self, bernoulli_03_moments):
        # A = bar_b_2 (t-a)^2 has second a-derivative 2 bar_b_2 everywhere.
        c = compute_coefficients(2, 2, bernoulli_03_moments)
        vals = correction_derivative_values(0.0, 0.37, c, bernoulli_03_moments, order=2)
        assert vals == pytest.approx(2.0 / 0.21, rel=1e-12)


class TestScore:
    def test_zero_when_prediction_perfect_and_theta_matches(self, bernoulli_03_moments):
        c = compute_coefficients(2, 2, bernoulli_03_moments)
        assert score_values(1, 0.3, 2.5, 2.5, 2.5, c, bernoulli_03_moments) == 0.0

    def test_affine_in_prediction(self, bernoulli_03_moments):
        # score(g) is affine with slope A - 1: three points must be collinear.
        c = compute_coefficients(3, 2, bernoulli_03_moments)
        rng = np.random.default_rng(21)
        for _ in range(20):
            t = int(rng.integers(0, 2))
            a = float(rng.uniform(0.1, 0.9))
            y, theta = rng.normal(size=2)
            g0, g1 = rng.normal(size=2)
            gm = 0.5 * (g0 + g1)
            s0 = float(score_values(t, a, y, g0, theta, c, bernoulli_03_moments))
            s1 = float(score_values(t, a, y, g1, theta, c, bernoulli_03_moments))
            sm = float(score_values(t, a, y, gm, theta, c, bernoulli_03_moments))
            assert sm == pytest.approx(0.5 * (s0 + s1), rel=1e-10, abs=1e-12)
            slope = (s1 - s0) / (g1 - g0)
            a_val = float(correction_values(t, a, c, bernoulli_03_moments))
            assert slope == pytest.approx(a_val - 1.0, rel=1e-9, abs=1e-12)

    def test_monte_carlo_mean_vanishes_at_truth(self, bernoulli_03_moments):
        # E[psi] = 0 when g, pi, theta are all true.
        rng = np.random.default_rng(77)
        n = 100_000
        pi = 0.3
        z = rng.normal(size=n)
        g = 1.0 + 0.5 * z
        y = g + rng.normal(size=n)
        t = (rng.uniform(size=n) < pi).astype(float)
        theta = 1.0
        c = compute_coefficients(2, 2, bernoulli_03_moments)
        psi = score_values(t, np.full(n, pi), y, g, theta, c, bernoulli_03_moments)
        se = psi.std(ddof=1) / np.sqrt(n)
        assert abs(psi.mean()) < 3 * se

    def test_dml_special_case_identity(self):
        # Fixing A = t/a reproduces the first-order summand exactly.
        t, a, y, g, theta = 1.0, 0.25, 3.0, 1.0, 2.0
        direct = theta - g - (y - g) * (t / a)
        assert dml_score_values(t, a, y, g, theta) == pytest.approx(direct, rel=1e-15)
        assert float(dml_score_values(1, 0.25, y, g, theta)) == pytest.approx(direct, rel=1e-15)


class TestBinomial:
    def test_pascal_values(self):
        assert binomial(4, 2) == 6
        assert binomial(6, 0) == 1
        assert binomial(5, 5) == 1

    def test_out_of_range(self):
        with pytest.raises(InvalidOrder):
            binomial(17, 2)
        with pytest.raises(InvalidOrder):
            binomial(3, 5)
