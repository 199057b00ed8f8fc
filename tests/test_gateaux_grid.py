"""The Gateaux stencil: exactness against the full-grid oracle, cost and argument checks."""

import tracemalloc
import warnings

import numpy as np
import pytest

from gateaux_reference import reference_entries
from orthoate import SimConfig, compute_coefficients, gateaux
from orthoate.exceptions import InvalidArgument, InvalidOrder, OrthoError
from orthoate.gateaux import (
    DIRECTION_NAMES,
    check_on_draw,
    check_orthogonality,
    draw_at_truth,
    epsilon_in_domain,
)

SCORES = [(2, 2), (4, 2), (4, 3), (6, 4), None]
N_DRAWS = 3000


@pytest.fixture(scope="module")
def model():
    return SimConfig(Q=100, p=2, r_c=1.0, n_treatments=3, M=1, master_seed=7).model()


def _score(model, rk, treatment):
    if rk is None:
        return None, None
    moments = model.residual_moments(treatment, rk[0])
    return compute_coefficients(rk[0], rk[1], moments), moments


def _key(e):
    return (e.alpha, e.direction, e.estimate.hex(), e.se.hex(), e.exact, e.violated)


@pytest.mark.parametrize("treatment", [0, 1])
@pytest.mark.parametrize("rk", SCORES, ids=lambda rk: "dml" if rk is None else f"ho{rk[0]}{rk[1]}")
def test_estimates_match_full_grid_oracle_bit_for_bit(model, rk, treatment):
    coeffs, moments = _score(model, rk, treatment)
    for order in range(1, 6):
        kwargs = dict(order=order, epsilon=0.05, n_draws=N_DRAWS, seed=order, treatment=treatment)
        rep = check_orthogonality(coeffs, moments, model, **kwargs)
        want = reference_entries(coeffs, moments, model, **kwargs)
        assert [_key(e) for e in rep.entries] == [_key(e) for e in want], f"order {order}"


@pytest.mark.parametrize("treatment", [0, 1])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_every_score_on_one_shared_draw_matches_its_own_call_and_the_oracle(model, order, treatment):
    # 3,001 draws: not a multiple of any SIMD width.
    kwargs = dict(order=order, epsilon=0.05, n_draws=3001, seed=order, treatment=treatment)
    draw = draw_at_truth(model, 3001, order, treatment, order, 0.05)
    for rk in [(2, 2), (4, 2), (4, 3), None]:
        coeffs, moments = _score(model, rk, treatment)
        shared = check_on_draw(coeffs, moments, draw)
        alone = check_orthogonality(coeffs, moments, model, **kwargs)
        want = reference_entries(coeffs, moments, model, **kwargs)
        assert [_key(e) for e in shared.entries] == [_key(e) for e in alone.entries], rk
        assert [_key(e) for e in shared.entries] == [_key(e) for e in want], rk
        assert shared == alone


def test_the_draw_keeps_no_view_of_the_sample(model):
    # A column view would keep the whole propensity or outcome matrix alive.
    draw = draw_at_truth(model, 500, 0, 1, 2, 0.05)
    arrays = [draw.t_ind, draw.a0, draw.g0, draw.y] + [h for _, *pair in draw.directions for h in pair]
    assert all(a.base is None and a.shape == (500,) and a.flags.c_contiguous for a in arrays)
    assert [name for name, *_ in draw.directions] == list(DIRECTION_NAMES)


def test_draw_refuses_bad_arguments_before_drawing(model, monkeypatch):
    def no_draw(*args):
        raise AssertionError("reached the Monte-Carlo draw")

    monkeypatch.setattr(type(model), "sample_potential", no_draw)
    with pytest.raises(InvalidArgument, match="treatment"):
        draw_at_truth(model, 100, 0, 3, 2, 0.05)
    with pytest.raises(InvalidOrder):
        draw_at_truth(model, 100, 0, 0, 0, 0.05)


@pytest.mark.parametrize("rk", [(2, 2), None], ids=["ho22", "dml"])
@pytest.mark.parametrize("directions", [DIRECTION_NAMES, ("sigmoid",)])
def test_one_correction_per_propensity_offset_and_direction(model, monkeypatch, rk, directions):
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(np.size(args[1]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(gateaux, "correction_values", counting(gateaux.correction_values))
    monkeypatch.setattr(gateaux, "dml_correction_values", counting(gateaux.dml_correction_values))
    coeffs, moments = _score(model, rk, 0)
    for order in (1, 2, 4):
        calls.clear()
        check_orthogonality(coeffs, moments, model, order=order, n_draws=500, directions=directions)
        assert len(calls) == len(directions) * (2 * order + 1)
        assert set(calls) == {500}


def test_traced_peak_is_linear_in_draws_and_free_of_the_grid(model):
    # The full (2*order+1)**2 grid held about 103 arrays of n_draws at order 4.
    coeffs, moments = _score(model, (2, 2), 0)
    n_draws = 50_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        check_orthogonality(coeffs, moments, model, order=4, n_draws=n_draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 8 * n_draws


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"n_draws": 1}, "n_draws"),
        ({"n_draws": 0}, "n_draws"),
        ({"n_draws": 2.5}, "n_draws"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": -0.05}, "epsilon"),
        ({"epsilon": float("nan")}, "epsilon"),
        ({"epsilon": float("inf")}, "epsilon"),
        ({"treatment": 5}, "treatment"),
        ({"treatment": 3}, "treatment"),
        ({"treatment": -1}, "treatment"),
        ({"directions": ("constant", "bogus")}, "bogus"),
    ],
)
def test_bad_arguments_raise_before_the_draw(model, monkeypatch, kwargs, match):
    def no_draw(*args):
        raise AssertionError("reached the Monte-Carlo draw")

    monkeypatch.setattr(type(model), "sample_potential", no_draw)
    with pytest.raises(InvalidArgument, match=match) as info:
        check_orthogonality(None, None, model, **kwargs)
    assert isinstance(info.value, OrthoError) and isinstance(info.value, ValueError)


def test_coefficients_without_moments_is_typed(model):
    coeffs, _ = _score(model, (2, 2), 0)
    with pytest.raises(InvalidArgument, match="moments"):
        check_orthogonality(coeffs, None, model, n_draws=100)


def test_order_below_one_is_still_invalid_order(model):
    with pytest.raises(InvalidOrder):
        check_orthogonality(None, None, model, order=0, n_draws=100)


@pytest.mark.filterwarnings("error")
def test_smallest_valid_call_warns_nothing(model):
    rep = check_orthogonality(None, None, model, order=1, n_draws=2, epsilon=1e-3)
    assert all(np.isfinite(e.estimate) and np.isfinite(e.se) for e in rep.entries)


@pytest.mark.parametrize("epsilon", [1e100, 1e200, 1e-200, 1e-39])
def test_epsilon_whose_stencil_scale_leaves_the_float_range_is_refused(
    model, monkeypatch, epsilon
):
    # At the parent 1e100 and 1e200 overflowed into a traceback at order 4,
    # and 1e-200 returned 0.0 estimates after divide-by-zero warnings.
    def no_draw(*args):
        raise AssertionError("reached the Monte-Carlo draw")

    monkeypatch.setattr(type(model), "sample_potential", no_draw)
    with pytest.raises(InvalidArgument, match="epsilon"):
        check_orthogonality(None, None, model, order=4, n_draws=100, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [1e-38, 1e37])
def test_epsilon_at_the_edges_of_its_domain_gives_finite_estimates(model, epsilon):
    assert epsilon_in_domain(epsilon, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_orthogonality(None, None, model, order=4, n_draws=200, epsilon=epsilon)
    assert all(np.isfinite(e.estimate) and np.isfinite(e.se) for e in report.entries)


def test_epsilon_domain_shrinks_with_the_order():
    assert epsilon_in_domain(0.5, 2**31 - 1)
    assert epsilon_in_domain(1e-30, 2) and not epsilon_in_domain(1e-30, 20)
    assert not epsilon_in_domain(float("inf"), 1) and not epsilon_in_domain(0.0, 1)
