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
# With blocks of 1,000 rows, 3,000 draws fill three blocks and 3,001 add a
# ragged fourth of one row.
SMALL_BLOCK = 1000


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


def _score_id(rk):
    return "dml" if rk is None else f"ho{rk[0]}{rk[1]}"


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(gateaux, "_BLOCK_ROWS", SMALL_BLOCK)


@pytest.mark.parametrize("treatment", [0, 1])
@pytest.mark.parametrize("rk", SCORES, ids=_score_id)
def test_estimates_match_full_grid_oracle_bit_for_bit(model, small_blocks, rk, treatment):
    coeffs, moments = _score(model, rk, treatment)
    for order in range(1, 6):
        kwargs = dict(order=order, epsilon=0.05, n_draws=N_DRAWS, seed=order, treatment=treatment)
        rep = check_orthogonality(coeffs, moments, model, **kwargs)
        want = reference_entries(coeffs, moments, model, **kwargs)
        assert [_key(e) for e in rep.entries] == [_key(e) for e in want], f"order {order}"


@pytest.mark.parametrize("treatment", [0, 1])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_every_score_on_one_shared_draw_matches_its_own_call_and_the_oracle(
    model, small_blocks, order, treatment
):
    # 3,001 draws: not a multiple of any SIMD width.
    kwargs = dict(order=order, epsilon=0.05, n_draws=3001, seed=order, treatment=treatment)
    draw = draw_at_truth(model, 3001, order, treatment, order, 0.05)
    for rk in SCORES:
        coeffs, moments = _score(model, rk, treatment)
        shared = check_on_draw(coeffs, moments, draw)
        alone = check_orthogonality(coeffs, moments, model, **kwargs)
        want = reference_entries(coeffs, moments, model, **kwargs)
        assert [_key(e) for e in shared.entries] == [_key(e) for e in alone.entries], rk
        assert [_key(e) for e in shared.entries] == [_key(e) for e in want], rk
        assert shared == alone


@pytest.mark.parametrize("rk", SCORES, ids=_score_id)
def test_estimates_at_the_default_block_match_the_oracle_over_a_ragged_last_block(model, rk):
    n_draws = int(2.5 * gateaux._BLOCK_ROWS) + 1
    coeffs, moments = _score(model, rk, 0)
    for order in range(1, 5):
        kwargs = dict(order=order, epsilon=0.05, n_draws=n_draws, seed=order, treatment=0)
        rep = check_orthogonality(coeffs, moments, model, **kwargs)
        want = reference_entries(coeffs, moments, model, **kwargs)
        assert [_key(e) for e in rep.entries] == [_key(e) for e in want], f"order {order}"


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


def _first_row(view, whole):
    assert np.shares_memory(view, whole)
    return (view.ctypes.data - whole.ctypes.data) // whole.itemsize


@pytest.mark.parametrize("rk", [(2, 2), None], ids=["ho22", "dml"])
@pytest.mark.parametrize("directions", [DIRECTION_NAMES, ("sigmoid",)])
def test_one_correction_per_propensity_offset_and_direction(
    model, monkeypatch, small_blocks, rk, directions
):
    # Offset 0 is evaluated once per score over every draw; each other
    # offset once per direction, by blocks that cover every draw once.
    calls = []

    def counting(fn):
        def wrapped(t, a, *args, **kwargs):
            calls.append((t, a.copy()))
            return fn(t, a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(gateaux, "correction_values", counting(gateaux.correction_values))
    monkeypatch.setattr(gateaux, "dml_correction_values", counting(gateaux.dml_correction_values))
    coeffs, moments = _score(model, rk, 0)
    n_draws = 2500
    for order in (1, 2, 4):
        draw = draw_at_truth(model, n_draws, 0, 0, order, 0.05, directions)
        calls.clear()
        check_on_draw(coeffs, moments, draw)
        spans = {}
        for t, a in calls:
            lo = _first_row(t, draw.t_ind)
            rows = slice(lo, lo + t.size)
            if np.array_equal(a, draw.a0[rows]):
                keys = [("every direction", 0)]
            else:
                keys = [
                    (name, ot)
                    for name, _, h_a in draw.directions
                    for ot in range(-order, order + 1)
                    if ot and np.array_equal(a, draw.a0[rows] + ot * 0.05 * h_a[rows])
                ]
            assert len(keys) == 1
            spans.setdefault(keys[0], []).append((rows.start, rows.stop))
        want = {("every direction", 0)} | {
            (name, ot) for name in directions for ot in range(-order, order + 1) if ot
        }
        assert set(spans) == want
        assert spans.pop(("every direction", 0)) == [(0, n_draws)]
        blocks = [(lo, min(lo + SMALL_BLOCK, n_draws)) for lo in range(0, n_draws, SMALL_BLOCK)]
        assert all(sorted(s) == blocks for s in spans.values())
        assert len(calls) == 1 + len(directions) * 2 * order * len(blocks)
        assert sum(t.size for t, _ in calls) == n_draws * (1 + len(directions) * 2 * order)


def test_traced_peak_is_linear_in_draws_and_free_of_the_grid(model, monkeypatch):
    # Above the draw: one full-length sum per stencilled alpha (2 * order
    # of them), the offset-0 correction, and the deviation's temporary,
    # with one array to spare; the rest is temporaries of one block.  The
    # unblocked stencil held 16 arrays of n_draws at order 2.
    n_draws = 50_000
    for block in (SMALL_BLOCK, gateaux._BLOCK_ROWS):
        monkeypatch.setattr(gateaux, "_BLOCK_ROWS", block)
        for order in (1, 2, 4):
            draw = draw_at_truth(model, n_draws, 0, 0, order, 0.05)
            bound = 8 * ((2 * order + 3) * n_draws + (2 * order + 16) * block)
            for rk in [(2, 2), None]:
                coeffs, moments = _score(model, rk, 0)
                tracemalloc.start()
                try:
                    check_on_draw(coeffs, moments, draw)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound, (block, order, rk)


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
