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

Cost: each direction evaluates the correction factor 2*order+1 times,
once per propensity offset, and forms stencil values on demand, so
memory is linear in ``n_draws`` whatever the size of the stencil grid.

The model argument supplies the data law and true nuisances; any object
with ``n_treatments``, ``sample_potential(n, rng)``, ``propensities(Z)``,
``outcome_mean(i, Z)`` and ``population_theta(i)`` works.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import InvalidArgument, InvalidOrder
from .score import Moments, OrthoCoefficients, binomial, correction_values, dml_correction_values

PROPENSITY_LO = 0.01
PROPENSITY_HI = 0.99

DIRECTION_NAMES = ("constant", "sigmoid")


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

    Each direction costs 2*order+1 correction evaluations; stencil
    values are formed on demand (only outcome offsets -1..1 are read),
    so memory is linear in ``n_draws``.  Bad arguments raise
    :class:`InvalidArgument` before the draw.
    """
    if order < 1:
        raise InvalidOrder("order must be >= 1")
    if not (isinstance(n_draws, (int, np.integer)) and n_draws >= 2):
        raise InvalidArgument(f"n_draws must be an integer >= 2, got {n_draws!r}")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise InvalidArgument(f"epsilon must be finite and > 0, got {epsilon!r}")
    n_arms = model.n_treatments
    if not (isinstance(treatment, (int, np.integer)) and 0 <= treatment < n_arms):
        raise InvalidArgument(f"treatment must be an integer in [0, {n_arms}), got {treatment!r}")
    unknown = [name for name in directions if name not in DIRECTION_NAMES]
    if unknown:
        raise InvalidArgument(f"unknown direction pair(s) {unknown} (choices: {DIRECTION_NAMES})")
    if coeffs is None:
        label, correction = "dml", dml_correction_values
    elif moments is None:
        raise InvalidArgument("moments are required alongside coefficients")
    else:
        label = f"ho({coeffs.r},{coeffs.k})"
        correction = partial(correction_values, coeffs=coeffs, moments=moments)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    Z, d, y_pot = model.sample_potential(n_draws, rng)
    t_ind = (d == treatment).astype(float)
    a0 = model.propensities(Z)[:, treatment]
    g0 = model.outcome_mean(treatment, Z)
    y = y_pot[:, treatment]
    theta = model.population_theta(treatment)

    alphas = [(a1, total - a1) for total in range(1, order + 1) for a1 in range(total + 1)]

    entries = []
    for name in directions:
        h_g, h_a = _direction_pair(name, Z)
        h_a = _clamp_propensity_direction(a0, h_a, order * epsilon)
        A = {ot: correction(t_ind, a0 + ot * epsilon * h_a) for ot in range(-order, order + 1)}
        for a1, a2 in alphas:
            if a1 >= 2:
                entries.append(DerivativeEstimate((a1, a2), name, 0.0, 0.0, False, exact=True))
                continue
            comb = np.zeros(n_draws)
            for j in range(a1 + 1):
                wj = (-1.0) ** j * binomial(a1, j)
                g_pert = g0 + (a1 - 2 * j) * epsilon * h_g
                for l in range(a2 + 1):
                    w = wj * (-1.0) ** l * binomial(a2, l)
                    comb += w * (theta - g_pert - (y - g_pert) * A[a2 - 2 * l])
            comb /= (2.0 * epsilon) ** (a1 + a2)
            est = float(comb.mean())
            se = float(comb.std(ddof=1) / np.sqrt(n_draws))
            entries.append(DerivativeEstimate((a1, a2), name, est, se, abs(est) > 3.0 * se))
    return OrthogonalityReport(
        score_label=label,
        treatment=treatment,
        order=order,
        epsilon=epsilon,
        n_draws=n_draws,
        seed=seed,
        entries=tuple(entries),
    )
