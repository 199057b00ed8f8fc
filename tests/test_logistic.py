import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import logistic_reference
from orthoate import MissingClass, fit_logistic
from orthoate.learners.logistic import softmax


def test_softmax_rows_sum_to_one():
    logits = np.array([[0.0, 1.0, -2.0], [100.0, 100.0, 100.0]])
    p = softmax(logits)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(p > 0)


def test_softmax_shift_invariant():
    logits = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(softmax(logits), softmax(logits + 500.0), rtol=1e-12)


def test_probability_recovery():
    # Generate from a known softmax model and check predicted probabilities.
    rng = np.random.default_rng(3)
    n, p = 50_000, 2
    W = np.array([[0.8, -0.4], [-0.5, 0.9], [0.0, 0.0]])
    X = rng.normal(size=(n, p))
    probs = softmax(X @ W.T)
    u = rng.uniform(size=n)
    d = (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    fit = fit_logistic(X, d, n_classes=3, l2=1e-6, max_iter=3000)
    grid = rng.normal(size=(500, p))
    err = np.abs(fit.predict_proba(grid) - softmax(grid @ W.T))
    assert err.max() < 0.02


def test_separable_data_stays_finite():
    X = np.concatenate([np.full((30, 1), -2.0), np.full((30, 1), 2.0)])
    d = np.concatenate([np.zeros(30, dtype=int), np.ones(30, dtype=int)])
    fit = fit_logistic(X, d, n_classes=2, l2=1e-4)
    assert np.all(np.isfinite(fit.coef))
    p = fit.predict_proba(X)
    assert np.all(p > 0) and np.all(p < 1)


def test_loss_history_non_increasing():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(400, 3))
    d = (X[:, 0] + 0.5 * rng.normal(size=400) > 0).astype(int)
    fit = fit_logistic(X, d, n_classes=2)
    hist = np.asarray(fit.loss_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_independent_labels_recover_base_rate():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20_000, 2))
    d = (rng.uniform(size=20_000) < 0.3).astype(int)
    fit = fit_logistic(X, d, n_classes=2)
    p = fit.predict_proba(np.zeros((1, 2)))[0]
    assert p[1] == pytest.approx(d.mean(), abs=0.02)


def test_missing_class_raises():
    X = np.zeros((10, 1))
    d = np.zeros(10, dtype=int)
    with pytest.raises(MissingClass):
        fit_logistic(X, d, n_classes=2)


def test_rows_sum_to_one_and_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(500, 4))
    d = rng.integers(0, 3, size=500)
    fit_a = fit_logistic(X, d, n_classes=3)
    fit_b = fit_logistic(X, d, n_classes=3)
    pa = fit_a.predict_proba(X)
    np.testing.assert_allclose(pa.sum(axis=1), 1.0, rtol=1e-10)
    np.testing.assert_array_equal(pa, fit_b.predict_proba(X))


def assert_same_fit(got, want):
    assert got.coef.tobytes() == want.coef.tobytes()
    assert got.intercept.tobytes() == want.intercept.tobytes()
    assert got.loss_history.tobytes() == want.loss_history.tobytes()
    assert got.n_iter == want.n_iter and got.converged == want.converged


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(10, 2000),
    p=st.integers(1, 12),
    k=st.integers(2, 10),
    l2=st.sampled_from([0.0, 1e-4, 1.0]),
    max_iter=st.sampled_from([1, 2, 5, 40, 400]),
    separable=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_fit_equals_the_reference(n, p, k, l2, max_iter, separable, data_seed):
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    if separable:
        # Labels are the argmax of a linear score, so the classes are
        # linearly separable and an unpenalised fit never converges.
        _, d = np.unique(np.argmax(X @ rng.normal(size=(p, k)), axis=1), return_inverse=True)
        if d.max() == 0:
            d = (X[:, 0] > np.median(X[:, 0])).astype(int)
    else:
        d = rng.integers(0, k, size=n)
        d[:k] = np.arange(k)
    got = fit_logistic(X, d, l2=l2, max_iter=max_iter)
    assert_same_fit(got, logistic_reference.fit_logistic(X, d, l2=l2, max_iter=max_iter))


@pytest.mark.parametrize("k", [2, 5, 9])
def test_fit_equals_the_reference_to_convergence(k):
    rng = np.random.default_rng(k)
    X = rng.normal(size=(1500, 4))
    d = np.argmax(X[:, :2] @ rng.normal(size=(2, k)) + rng.gumbel(size=(1500, k)), axis=1)
    got = fit_logistic(X, d, n_classes=k)
    assert got.converged
    assert_same_fit(got, logistic_reference.fit_logistic(X, d, n_classes=k))


def test_fit_equals_the_reference_when_stopped_unconverged():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 3))
    d = rng.integers(0, 3, size=300)
    got = fit_logistic(X, d, max_iter=3)
    assert not got.converged and got.n_iter == 3
    assert_same_fit(got, logistic_reference.fit_logistic(X, d, max_iter=3))


def _laid_out(A, layout):
    """``A``'s values in a C-order, F-order, strided or reversed-column array."""
    if layout == "F":
        return np.asfortranarray(A)
    if layout == "strided":
        big = np.zeros((2 * A.shape[0], 3 * A.shape[1]))
        big[::2, ::3] = A
        return big[::2, ::3]
    if layout == "reversed":
        return np.ascontiguousarray(A[:, ::-1])[:, ::-1]
    return np.ascontiguousarray(A)


@settings(max_examples=200, deadline=None)
@given(
    A=st.integers(1, 12).flatmap(
        lambda k: hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 40), st.just(k)),
            elements=st.floats(-700.0, 700.0),
        )
    ),
    layout=st.sampled_from(["C", "F", "strided", "reversed"]),
)
def test_softmax_equals_the_reference_byte_for_byte(A, layout):
    logits = _laid_out(A, layout)
    assert softmax(logits).tobytes() == logistic_reference.softmax(logits).tobytes()


@pytest.mark.parametrize("k", range(1, 13))
def test_softmax_equals_the_reference_on_wide_logits(k):
    rng = np.random.default_rng(k)
    A = rng.uniform(-700.0, 700.0, size=(500, k)) * 10.0 ** rng.uniform(-6, 0, size=(500, k))
    for layout in ("C", "F", "strided", "reversed"):
        logits = _laid_out(A, layout)
        assert softmax(logits).tobytes() == logistic_reference.softmax(logits).tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_softmax_of_other_dtypes_equals_the_reference(dtype):
    logits = np.array([[1, -2, 3], [40, 40, 7]], dtype=dtype)
    got, want = softmax(logits), logistic_reference.softmax(logits)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _peak_bytes(fit, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fit(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_peaks_no_higher_than_the_reference():
    # A trial's probabilities are dropped once its step is decided, so
    # at most one n x k probability matrix is alive at a time.
    rng = np.random.default_rng(6)
    X = rng.normal(size=(56_000, 10))
    d = rng.integers(0, 3, size=56_000)
    for fit in (logistic_reference.fit_logistic, fit_logistic):
        fit(X[:300], d[:300], n_classes=3)  # first-call costs stay out of the peaks
    want = _peak_bytes(logistic_reference.fit_logistic, X, d, n_classes=3)
    assert _peak_bytes(fit_logistic, X, d, n_classes=3) <= want
