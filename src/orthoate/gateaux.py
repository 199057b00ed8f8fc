"""Monte-Carlo verification of score orthogonality via Gateaux derivatives.

For a score psi(W; g, a) the checker estimates

    D^alpha E[psi] = d^{a1}/ds^{a1} d^{a2}/dt^{a2} E[psi(g + s*h_g, a + t*h_a)]

at (s, t) = (0, 0) for every multi-index alpha = (a1, a2) with
1 <= a1 + a2 <= order, along fixed perturbation directions, by central
finite differences applied per Monte-Carlo draw.  Orthogonality of
order k means every such derivative with |alpha| <= k vanishes.

Two fixed direction pairs are evaluated: a constant unit shift of both
nuisances and a bounded smooth function of the covariates (the mean of
coordinate-wise sigmoids).  Propensity directions are rescaled per
observation so every stencil point keeps the perturbed propensity
inside (0.01, 0.99).

Cost: one draw per call, which ``verify`` shares across every score it
checks.  A score evaluates the correction factor 1 + D*2*order times
over the draws (D directions): once at the unperturbed propensity,
shared by the directions, and once per direction at each non-zero
propensity offset.  The non-zero offsets and the stencil values run by
blocks of ``_BLOCK_ROWS`` draws.  Memory above the draw is one
full-length sum per multi-index with a1 < 2 (2*order of them, for one
direction at a time) and the offset-0 correction, plus the temporaries
of one block.  Every step is elementwise until the mean and deviation,
which see all draws at once, so the block size changes no bit.

The model argument supplies the data law and true nuisances; any object
with ``n_treatments``, ``sample_potential(n, rng)``, ``propensities(Z)``,
``outcome_mean(i, Z)`` and ``population_theta(i)`` works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import InvalidArgument, InvalidOrder
from .score import Moments, OrthoCoefficients, binomial, correction_values, dml_correction_values
from .seeds import stream

PROPENSITY_LO = 0.01
PROPENSITY_HI = 0.99

DIRECTION_NAMES = ("constant", "sigmoid")

# Draws whose stencil values are formed together; the per-alpha sums
# keep full length so their mean and deviation see every draw at once.
_BLOCK_ROWS = 8192

# The stencils divide by (2*epsilon)**a for a <= order, and the standard
# errors square the result: keep the square of the largest scale a
# finite, non-zero normal float.
EPSILON_DOMAIN = "finite and > 0 with 2 * order * |log2(2 * epsilon)| < 1022"


def epsilon_in_domain(epsilon, order: int) -> bool:
    """Whether (2*epsilon)**order and its square are finite, non-zero normal floats."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        return False
    return 2 * order * abs(math.log2(2.0 * float(epsilon))) < 1022


@dataclass(frozen=True)
class DerivativeEstimate:
    """One Gateaux derivative estimate along one direction pair."""

    alpha: tuple[int, int]
    direction: str
    estimate: float
    se: float
    violated: bool
    exact: bool = False


@dataclass(frozen=True)
class OrthogonalityReport:
    score_label: str
    treatment: int
    order: int
    epsilon: float
    n_draws: int
    seed: int
    entries: tuple[DerivativeEstimate, ...]

    def entry(self, alpha: tuple[int, int], direction: str) -> DerivativeEstimate:
        for e in self.entries:
            if e.alpha == tuple(alpha) and e.direction == direction:
                return e
        raise KeyError(f"no entry for alpha={alpha}, direction={direction}")

    def violations(self, direction: str | None = None, max_total: int | None = None):
        out = []
        for e in self.entries:
            if not e.violated:
                continue
            if direction is not None and e.direction != direction:
                continue
            if max_total is not None and sum(e.alpha) > max_total:
                continue
            out.append(e)
        return out

    def passed(self, direction: str | None = None, max_total: int | None = None) -> bool:
        return not self.violations(direction, max_total)

    def summary_lines(self):
        lines = [f"score {self.score_label}, treatment {self.treatment}:"]
        for e in self.entries:
            tag = "EXACT" if e.exact else ("VIOLATION" if e.violated else "ok")
            lines.append(
                f"  alpha={e.alpha} [{e.direction:8s}] "
                f"estimate={e.estimate:+.5e} se={e.se:.3e} {tag}"
            )
        return lines


def _direction_pair(name: str, Z: np.ndarray):
    if name == "constant":
        ones = np.ones(Z.shape[0])
        return ones, ones.copy()
    if name == "sigmoid":
        h = (1.0 / (1.0 + np.exp(-Z))).mean(axis=1)
        return h, h.copy()


def _clamp_propensity_direction(a0: np.ndarray, h_a: np.ndarray, reach: float) -> np.ndarray:
    # Largest safe magnitude so a0 + s * h stays in (LO, HI) for |s| <= reach.
    room = np.minimum(a0 - PROPENSITY_LO, PROPENSITY_HI - a0)
    cap = np.maximum(room, 0.0) / reach
    return np.sign(h_a) * np.minimum(np.abs(h_a), cap)


def _check_arguments(model, order, epsilon, n_draws, treatment, directions) -> None:
    if order < 1:
        raise InvalidOrder("order must be >= 1")
    if not (isinstance(n_draws, (int, np.integer)) and n_draws >= 2):
        raise InvalidArgument(f"n_draws must be an integer >= 2, got {n_draws!r}")
    if not epsilon_in_domain(epsilon, order):
        raise InvalidArgument(f"epsilon must be {EPSILON_DOMAIN}, got {epsilon!r} at order {order}")
    n_arms = model.n_treatments
    if not (isinstance(treatment, (int, np.integer)) and 0 <= treatment < n_arms):
        raise InvalidArgument(f"treatment must be an integer in [0, {n_arms}), got {treatment!r}")
    unknown = [name for name in directions if name not in DIRECTION_NAMES]
    if unknown:
        raise InvalidArgument(f"unknown direction pair(s) {unknown} (choices: {DIRECTION_NAMES})")


def _score(coeffs: OrthoCoefficients | None, moments: Moments | None):
    """The score's label and its correction factor as a function of (t, a)."""
    if coeffs is None:
        return "dml", dml_correction_values
    if moments is None:
        raise InvalidArgument("moments are required alongside coefficients")
    return f"ho({coeffs.r},{coeffs.k})", partial(correction_values, coeffs=coeffs, moments=moments)


@dataclass(frozen=True)
class TruthDraw:
    """What the stencil reads of one Monte-Carlo draw at the true nuisances."""

    treatment: int
    order: int
    epsilon: float
    seed: int
    t_ind: np.ndarray
    a0: np.ndarray
    g0: np.ndarray
    y: np.ndarray
    theta: float
    directions: tuple  # (name, h_g, h_a) per pair, h_a clamped to reach order * epsilon


def draw_at_truth(
    model, n_draws, seed, treatment, order, epsilon, directions=DIRECTION_NAMES
) -> TruthDraw:
    """Draw once, keeping only what the stencil reads; bad arguments raise before the draw."""
    _check_arguments(model, order, epsilon, n_draws, treatment, directions)
    Z, d, y_pot = model.sample_potential(n_draws, stream(seed))
    t_ind, y = (d == treatment).astype(float), y_pot[:, treatment].copy()
    del d, y_pot
    a0 = model.propensities(Z)[:, treatment].copy()
    pairs = []
    for name in directions:
        h_g, h_a = _direction_pair(name, Z)
        pairs.append((name, h_g, _clamp_propensity_direction(a0, h_a, order * epsilon)))
    g0, theta = model.outcome_mean(treatment, Z), model.population_theta(treatment)
    return TruthDraw(treatment, order, epsilon, seed, t_ind, a0, g0, y, theta, tuple(pairs))


def check_on_draw(coeffs: OrthoCoefficients | None, moments: Moments | None, draw: TruthDraw):
    """:func:`check_orthogonality` with the arguments ``draw`` was made with, on ``draw``."""
    label, correction = _score(coeffs, moments)
    order, epsilon, n_draws = draw.order, draw.epsilon, draw.t_ind.size
    alphas = [(a1, total - a1) for total in range(1, order + 1) for a1 in range(total + 1)]
    # a0 + 0 * epsilon * h_a is a0 bit for bit (every h_a >= 0), so both
    # directions share the offset-0 correction.
    at_zero = correction(draw.t_ind, draw.a0)
    entries = []
    for name, h_g, h_a in draw.directions:
        sums = {alpha: np.zeros(n_draws) for alpha in alphas if alpha[0] < 2}
        for lo in range(0, n_draws, _BLOCK_ROWS):
            _stencil_block(draw, correction, at_zero, h_g, h_a, slice(lo, lo + _BLOCK_ROWS), sums)
        for a1, a2 in alphas:
            if a1 >= 2:
                entries.append(DerivativeEstimate((a1, a2), name, 0.0, 0.0, False, exact=True))
                continue
            values = sums.pop((a1, a2))  # freed before the next direction allocates
            est = float(values.mean())
            se = float(values.std(ddof=1) / np.sqrt(n_draws))
            entries.append(DerivativeEstimate((a1, a2), name, est, se, abs(est) > 3.0 * se))
    return OrthogonalityReport(
        label, draw.treatment, order, epsilon, n_draws, draw.seed, tuple(entries)
    )


def _stencil_block(draw: TruthDraw, correction, at_zero, h_g, h_a, rows: slice, sums) -> None:
    """Add the stencil values of ``rows`` along one direction into ``sums[alpha][rows]``.

    Every step is elementwise, so a block gives the bits the same steps
    give over all draws at once.
    """
    order, epsilon = draw.order, draw.epsilon
    t_ind, a0, h_a = draw.t_ind[rows], draw.a0[rows], h_a[rows]
    A = {ot: correction(t_ind, a0 + ot * epsilon * h_a) for ot in range(-order, order + 1) if ot}
    A[0] = at_zero[rows]
    # Outcome shifts a1 - 2j of the stencils with a1 < 2: -1, 0 and 1.
    g0, y, h_g = draw.g0[rows], draw.y[rows], h_g[rows]
    terms = {}
    for shift in (-1, 0, 1):
        g_pert = g0 + shift * epsilon * h_g
        terms[shift] = (draw.theta - g_pert, y - g_pert)
    for (a1, a2), values in sums.items():
        out = values[rows]
        for j in range(a1 + 1):
            wj = (-1.0) ** j * binomial(a1, j)
            theta_gap, y_gap = terms[a1 - 2 * j]
            for l in range(a2 + 1):
                w = wj * (-1.0) ** l * binomial(a2, l)
                out += w * (theta_gap - y_gap * A[a2 - 2 * l])
        out /= (2.0 * epsilon) ** (a1 + a2)


def check_orthogonality(
    coeffs: OrthoCoefficients | None,
    moments: Moments | None,
    model,
    order: int = 2,
    epsilon: float = 0.05,
    n_draws: int = 200_000,
    seed: int = 0,
    treatment: int = 0,
    directions=DIRECTION_NAMES,
) -> OrthogonalityReport:
    """Estimate all Gateaux derivatives of E[psi] up to ``order``.

    ``coeffs=None`` selects the first-order t/a score instead of the
    higher-order family (``moments`` is then ignored).  Moments enter
    the score as plug-in constants and are not perturbed.

    For every alpha the per-draw stencil uses points (a1 - 2j) * epsilon
    and weights (-1)**j C(a1, j), so offsets never exceed order*epsilon;
    the estimate is the sample mean of the per-draw values and the
    standard error its sample deviation over sqrt(n_draws).  A
    derivative is flagged when |estimate| > 3 * se.  Derivatives with
    a1 >= 2 are exactly zero because every score here is affine in the
    outcome regression; they are reported as exact without a stencil.

    Cost: one draw per call (:func:`draw_at_truth`), which ``verify``
    shares across every score (:func:`check_on_draw`).  A score costs
    1 + D*2*order correction evaluations over the draws for D
    directions, evaluated by row blocks; memory is held in the 2*order
    per-alpha sums and the offset-0 correction, plus block temporaries.
    Bad arguments raise :class:`InvalidArgument` before the draw.
    """
    _check_arguments(model, order, epsilon, n_draws, treatment, directions)
    _score(coeffs, moments)  # refuses coefficients without moments before the draw
    draw = draw_at_truth(model, n_draws, seed, treatment, order, epsilon, directions)
    return check_on_draw(coeffs, moments, draw)
