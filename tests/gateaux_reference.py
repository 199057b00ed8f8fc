"""Reference Gateaux grid that the orthogonality tests compare against.

This is the stencil the package used before corrections were shared
across outcome offsets: for each direction pair it fills the full
(2*order+1) x (2*order+1) grid of per-draw score values, evaluating the
correction once per grid cell, and then combines grid cells for each
multi-index.  It is slow and memory hungry and kept only as the oracle:
``check_orthogonality`` must reproduce its estimates bit for bit.
"""

from __future__ import annotations

import numpy as np

from orthoate.gateaux import (
    DIRECTION_NAMES,
    DerivativeEstimate,
    _clamp_propensity_direction,
    _direction_pair,
)
from orthoate.score import binomial, correction_values, dml_correction_values


def reference_entries(
    coeffs, moments, model, order=2, epsilon=0.05, n_draws=200_000, seed=0,
    treatment=0, directions=DIRECTION_NAMES,
) -> tuple:
    """The ``entries`` of ``check_orthogonality`` with the same arguments."""
    if coeffs is None:
        def correction(t_ind, a):
            return dml_correction_values(t_ind, a)
    else:
        def correction(t_ind, a):
            return correction_values(t_ind, a, coeffs, moments)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    Z, d, y_pot = model.sample_potential(n_draws, rng)
    t_ind = (d == treatment).astype(float)
    a0 = model.propensities(Z)[:, treatment]
    g0 = model.outcome_mean(treatment, Z)
    y = y_pot[:, treatment]
    theta = model.population_theta(treatment)

    alphas = [
        (a1, a2)
        for total in range(1, order + 1)
        for a1 in range(total + 1)
        for a2 in [total - a1]
    ]

    entries = []
    offsets = range(-order, order + 1)
    for name in directions:
        h_g, h_a = _direction_pair(name, Z)
        h_a = _clamp_propensity_direction(a0, h_a, order * epsilon)
        grid = {}
        for os_ in offsets:
            g_pert = g0 + os_ * epsilon * h_g
            for ot in offsets:
                a_pert = a0 + ot * epsilon * h_a
                A = correction(t_ind, a_pert)
                grid[(os_, ot)] = theta - g_pert - (y - g_pert) * A
        for a1, a2 in alphas:
            if a1 >= 2:
                entries.append(
                    DerivativeEstimate((a1, a2), name, 0.0, 0.0, False, exact=True)
                )
                continue
            comb = np.zeros(n_draws)
            for j in range(a1 + 1):
                wj = (-1.0) ** j * binomial(a1, j)
                for l in range(a2 + 1):
                    w = wj * (-1.0) ** l * binomial(a2, l)
                    comb += w * grid[(a1 - 2 * j, a2 - 2 * l)]
            comb /= (2.0 * epsilon) ** (a1 + a2)
            est = float(comb.mean())
            se = float(comb.std(ddof=1) / np.sqrt(n_draws))
            entries.append(
                DerivativeEstimate((a1, a2), name, est, se, abs(est) > 3.0 * se)
            )
    return tuple(entries)
