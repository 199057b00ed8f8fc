"""Average-potential-outcome estimators over a single sample split.

Nuisances are fit on the training fold only.  Each estimator is a plain
function of estimation-fold arrays: outcomes y, treatments d, outcome
predictions G (one column per arm) and propensity predictions P, so one
prediction per fold serves every estimator.

* direct regression (DR): the fold mean of the outcome predictions;
* first-order debiased (DML): DR plus inverse-propensity-weighted
  factual residuals;
* higher-order (r, k): DR plus the correction-factor-weighted factual
  residual term plus a resampled counterfactual residual term, averaged
  over R independent resampling repetitions.

The resampling draws, for every estimation-fold unit outside a
treatment arm, one factual residual of that arm uniformly with
replacement; the stream for repetition u of treatment i is
``seeds.stream(seed, i, u)``, so results are reproducible and
independent of evaluation order.  The draws are those of
``Generator.integers(0, pool size)`` on that stream, produced for a
chunk of repetitions at once (at most 8,192 draws per chunk): seed
words from ``seeds.spawn_words``, raw words from one reused PCG64, and
numpy's own bounded-integer rule (Lemire 2019) applied to all of them.
The split is ``seeds.stream(seed)``.  The mean of ``relative_ate_error``
over datasets, epsilon_ATE, is ``simulation.error_summary``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .exceptions import (
    EmptyFold,
    EmptyResidualSet,
    InvalidArgument,
    NonFinite,
    ShapeMismatch,
    ZeroDenominator,
)
from .learners.base import check_label_range, integer_labels
from .score import Moments, compute_coefficients, correction_values
from .seeds import pcg64_states, stream


@dataclass(frozen=True)
class Dataset:
    """Observed sample: outcomes y, integer treatments d, covariates Z.

    ``truth`` optionally carries the true per-treatment outcome means
    (one column per arm) for benchmark data where they are known.
    """

    y: np.ndarray
    d: np.ndarray
    Z: np.ndarray
    truth: np.ndarray | None = None
    n_treatments: int | None = None

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        d_raw = np.asarray(self.d)
        if y.ndim != 1 or Z.ndim != 2 or y.size != Z.shape[0] or d_raw.shape != y.shape:
            raise ShapeMismatch("y, d must be 1-d of equal length and Z 2-d with matching rows")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(Z))):
            raise NonFinite("y and Z must be finite")
        d = integer_labels(d_raw, "treatments")
        n_treat = self.n_treatments if self.n_treatments is not None else int(d.max()) + 1
        check_label_range(d, n_treat, "treatments")
        truth = self.truth
        if truth is not None:
            truth = np.asarray(truth, dtype=float)
            if truth.shape != (y.size, n_treat):
                raise ShapeMismatch("truth must be (n, n_treatments)")
            if not np.all(np.isfinite(truth)):
                raise NonFinite("truth must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "n_treatments", n_treat)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class SplitPlan:
    """Index sets of the estimation fold and its complement."""

    estimation_idx: np.ndarray
    training_idx: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        est = np.asarray(self.estimation_idx, dtype=np.int64)
        tr = np.asarray(self.training_idx, dtype=np.int64)
        if est.size == 0 or tr.size == 0:
            raise EmptyFold("both folds must be non-empty")
        if np.intersect1d(est, tr).size:
            raise InvalidArgument("folds must be disjoint")
        object.__setattr__(self, "estimation_idx", est)
        object.__setattr__(self, "training_idx", tr)


def make_split(n: int, ratios=(0.56, 0.14, 0.30), seed: int = 0) -> SplitPlan:
    """Random train/validation/test split; the test fold is the estimation fold.

    Fold sizes are round(n * test) and round(n * train), the validation
    fold takes the remainder; train and validation together form the
    training fold handed to the learners.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidArgument(f"ratios must be three positive numbers summing to 1, got {ratios}")
    n_test = int(round(n * ratios[2]))
    n_train = int(round(n * ratios[0]))
    n_valid = n - n_train - n_test
    if min(n_train, n_valid, n_test) <= 0:
        raise EmptyFold(f"n={n} with ratios {ratios} leaves an empty fold")
    perm = stream(seed).permutation(n)
    return SplitPlan(
        estimation_idx=np.sort(perm[n_train + n_valid:]),
        training_idx=np.sort(perm[: n_train + n_valid]),
        seed=seed,
    )


def estimate_moments(d, pi_hat, treatment: int, max_order: int) -> Moments:
    """Empirical residual moments m_q = mean((1{d=i} - pi_hat)**q), q = 1..max_order."""
    d = np.asarray(d)
    pi_hat = np.asarray(pi_hat, dtype=float)
    if d.shape != pi_hat.shape or d.ndim != 1 or d.size == 0:
        raise ShapeMismatch("d and pi_hat must be matching non-empty 1-d arrays")
    if max_order < 1:
        raise InvalidArgument("max_order must be >= 1")
    resid = (d == treatment).astype(float) - pi_hat
    vals = [float(np.mean(resid**q)) for q in range(1, max_order + 1)]
    return Moments(np.asarray(vals))


@dataclass(frozen=True)
class Diagnostics:
    n_floored: int = 0
    infinite: bool = False
    nan: bool = False


@dataclass(frozen=True)
class EstimateReport:
    """One estimator's per-treatment estimates on one dataset."""

    estimator: str
    theta: np.ndarray
    ate_pairwise: np.ndarray
    diagnostics: Diagnostics
    moments_used: tuple | None = None
    r_reps: int = 0


def _finish_report(estimator, theta, n_floored, moments_used=None, r_reps=0) -> EstimateReport:
    theta = np.asarray(theta, dtype=float)
    return EstimateReport(
        estimator=estimator,
        theta=theta,
        ate_pairwise=pairwise_from_theta(theta),
        diagnostics=Diagnostics(
            n_floored=n_floored,
            infinite=bool(np.isinf(theta).any()),
            nan=bool(np.isnan(theta).any()),
        ),
        moments_used=moments_used,
        r_reps=r_reps,
    )


def estimate_dr(G) -> EstimateReport:
    """Direct regression: fold means of the outcome predictions."""
    return _finish_report("dr", G.mean(axis=0), 0)


def estimate_dml(y, d, G, P, n_floored: int = 0) -> EstimateReport:
    """First-order debiased estimator.

    theta_i = mean(g_i) + (1/N) sum over factual units of
    (y - g_i) / pi_i.  A zero estimated propensity on a factual unit, or
    one small enough for the weighted residuals to overflow, produces an
    infinite estimate; it is recorded in the diagnostics, never masked
    here.
    """
    N = y.size
    theta = np.zeros(G.shape[1])
    for i in range(G.shape[1]):
        mask = d == i
        resid = y[mask] - G[mask, i]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            contrib = resid / P[mask, i]
            theta[i] = G[:, i].mean() + contrib.sum() / N
    return _finish_report("dml", theta, n_floored)


def single_resample_pass(pool: np.ndarray, corrections: np.ndarray, n_fold: int, rng) -> float:
    """One resampling repetition of the counterfactual term.

    Draws len(corrections) values from ``pool`` uniformly with
    replacement, weights them by the corrections and divides by the
    fold size.
    """
    draws = pool[rng.integers(0, pool.size, size=corrections.size)]
    return float((draws * corrections).sum() / n_fold)


# Draws produced per chunk of repetitions (at least one repetition per
# chunk): bounds the working set whatever R and the fold size.
_CHUNK_DRAWS = 8192


def _resample_indices(seed: int, i: int, R: int, n: int, size: int):
    """Yield ``integers(0, n, size=size)`` of each repetition u's stream, a chunk of u at a time.

    The stream of u is ``stream(seed, i, u)``; each chunk has one row
    per u, in order.  For n < 2**32 numpy maps each 32-bit output word
    x (the low half of a raw word first) to (x * n) >> 32 and rejects x
    when the low 32 bits of x * n fall below (2**32 - n) % n.  A row whose first ``size`` words hold a
    rejection, and every row when n >= 2**32, is redrawn by
    ``Generator.integers`` itself from the row's state.
    """
    rows = max(1, _CHUNK_DRAWS // size)
    states = pcg64_states(seed, (i,), R)
    bits = np.random.PCG64(0)  # its state is replaced for every row
    gen = np.random.Generator(bits)
    threshold = (2**32 - n) % n
    for lo in range(0, R, rows):
        chunk = list(islice(states, rows))
        if n < 2**32:
            raw = np.empty((len(chunk), (size + 1) // 2), dtype=np.uint64)
            for row, state in enumerate(chunk):
                bits.state = state
                raw[row] = bits.random_raw(raw.shape[1])
            scaled = raw.astype("<u8", copy=False).view("<u4")[:, :size].astype(np.uint64)
            scaled *= n
            redo = np.flatnonzero((scaled.astype(np.uint32) < threshold).any(axis=1))
            scaled >>= 32
            idx = scaled.view(np.int64)
        else:
            idx = np.empty((len(chunk), size), dtype=np.int64)
            redo = range(len(chunk))
        for row in redo:
            bits.state = chunk[row]
            idx[row] = gen.integers(0, n, size=size)
        yield idx


def _counterfactual_term(pool, A_c, N: int, R: int, seed: int, i: int) -> float:
    """Mean over R repetitions of one resampling pass, each pass as ``single_resample_pass``."""
    acc = 0.0
    for idx in _resample_indices(seed, i, R, pool.size, A_c.size):
        for value in ((pool[idx] * A_c).sum(axis=1) / N).tolist():
            acc += value
    return acc / R


def estimate_higher_order(
    y,
    d,
    G,
    P,
    r: int,
    k: int,
    R: int = 100,
    seed: int = 0,
    moments=None,
    n_floored: int = 0,
) -> EstimateReport:
    """Debiased estimator built on the order-(r, k) orthogonal score.

    Per treatment i, with N the estimation-fold size:

    * factual term: mean of g_i plus (1/N) sum over units with d = i of
      (y - g_i) * A;
    * counterfactual term: for units with d != i, residuals resampled
      from the factual residual pool, weighted by their A values,
      averaged over R repetitions.

    ``moments`` overrides the residual moments estimated from (d, P)
    (one Moments per treatment), e.g. with exact model moments or
    moments of the training fold.
    """
    if R < 1:
        raise InvalidArgument("R must be >= 1")
    N = y.size
    theta = np.zeros(G.shape[1])
    moments_used = []
    for i in range(G.shape[1]):
        mom = moments[i] if moments is not None else estimate_moments(d, P[:, i], i, r)
        moments_used.append(mom)
        coeffs = compute_coefficients(r, k, mom)
        t_ind = (d == i).astype(float)
        A = correction_values(t_ind, P[:, i], coeffs, mom)
        factual = d == i
        if not factual.any():
            raise EmptyResidualSet(f"no factual units for treatment {i} on the estimation fold")
        pool = y[factual] - G[factual, i]
        term_a = float(G[:, i].mean())
        term_b = float((pool * A[factual]).sum() / N)
        counter = ~factual
        term_c = _counterfactual_term(pool, A[counter], N, R, seed, i) if counter.any() else 0.0
        theta[i] = term_a + term_b + term_c
    return _finish_report(
        f"ho({r},{k})", theta, n_floored, moments_used=tuple(moments_used), r_reps=R
    )


def pairwise_from_theta(theta) -> np.ndarray:
    """Antisymmetric matrix of pairwise effects theta_i - theta_k (inf - inf gives NaN)."""
    theta = np.asarray(theta, dtype=float)
    with np.errstate(invalid="ignore"):
        return theta[:, None] - theta[None, :]


def relative_ate_error(ate_hat: np.ndarray, ate_true: np.ndarray) -> float:
    """Sum of |error| over ordered pairs divided by the sum of |truth|; NonFinite if it overflows."""
    ate_hat = np.asarray(ate_hat, dtype=float)
    ate_true = np.asarray(ate_true, dtype=float)
    if ate_hat.shape != ate_true.shape or ate_hat.ndim != 2:
        raise ShapeMismatch("pairwise matrices must share a square shape")
    off = ~np.eye(ate_true.shape[0], dtype=bool)
    denom = float(np.abs(ate_true[off]).sum())
    if denom == 0.0:
        raise ZeroDenominator("all true pairwise effects are zero")
    with np.errstate(over="ignore"):
        error = float(np.abs(ate_hat[off] - ate_true[off]).sum() / denom)
    if np.isinf(error) and np.isfinite(ate_hat).all():
        raise NonFinite("relative ATE error overflows the float range")
    return error

